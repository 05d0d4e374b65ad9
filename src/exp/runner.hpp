#pragma once

/// \file runner.hpp
/// Monte-Carlo campaign runner.
///
/// Evaluates a set of engine configurations at one scenario point, the way
/// section 6.2 does: every configuration of a given repetition sees the
/// *same* workload (same m_i draws) and the *same* fault stream (same
/// generator seed — the exponential generator is deterministic in its
/// seed, so any two configurations replay identical faults however far
/// they read into the stream). Results are normalized per repetition by
/// the "fault context without redistribution" baseline, then averaged.
/// Repetitions run in parallel; outputs are indexed by repetition, so the
/// numbers are independent of thread scheduling.

#include <cstdint>
#include <string>
#include <vector>

#include "checkpoint/model.hpp"
#include "core/engine.hpp"
#include "core/pack.hpp"
#include "core/types.hpp"
#include "exp/scenario.hpp"
#include "util/stats.hpp"

namespace coredis::exp {

/// Aggregated outcome of one configuration at one scenario point.
struct ConfigOutcome {
  std::string name;
  RunningStats makespan;       ///< seconds
  RunningStats normalized;     ///< makespan / baseline makespan, per run
  RunningStats redistributions;
  RunningStats effective_faults;
};

struct PointResult {
  RunningStats baseline_makespan;       ///< the normalizer (no-RC, faults)
  std::vector<ConfigOutcome> configs;   ///< one per requested ConfigSpec
};

/// Raw outcome of one Monte-Carlo repetition ("cell") at one scenario
/// point: the baseline makespan plus one RunResult per configuration.
struct CellResult {
  double baseline = 0.0;
  std::vector<core::RunResult> results;  ///< one per ConfigSpec, same order
};

/// Append the JSON array of `cell`'s per-configuration results — name,
/// makespan, normalized, redistributions, effective_faults; doubles as
/// %.17g — shared by campaign cell records and serve responses.
void append_config_results(std::string& out,
                           const std::vector<ConfigSpec>& configs,
                           const CellResult& cell);

/// The warm per-(scenario, repetition) simulation state behind run_cell
/// (DESIGN.md section 7.1), extracted so long-lived callers — the serving
/// workspace pool (serve/pool.hpp) — can keep it across requests: one
/// engine, hence one expected-time model, one coefficient table and one
/// evaluator cache, serves the baseline and every configuration asked of
/// this (scenario, rep). All cached state is a pure function of
/// (scenario, rep), so evaluate() is bit-identical whether the workspace
/// is freshly built or has already answered a thousand requests — the
/// same warm-cache contract the lazy==eager battery pins for campaigns.
/// Not thread-safe (one workspace, one thread at a time), not copyable
/// (the engine's evaluator points into the workspace).
class CellWorkspace {
 public:
  CellWorkspace(const Scenario& scenario, std::uint64_t rep);
  CellWorkspace(const CellWorkspace&) = delete;
  CellWorkspace& operator=(const CellWorkspace&) = delete;

  /// Simulate `configs` over this workspace's workload/fault/arrival
  /// streams: exactly run_cell(scenario, rep, configs). Every
  /// configuration runs the policy its canonical_policy string resolves
  /// to in the policy registry (DESIGN.md section 10.2). The baseline is
  /// simulated once on first use and cached — it is a pure function of
  /// the streams — so repeated evaluations only pay for the requested
  /// configurations.
  [[nodiscard]] CellResult evaluate(const std::vector<ConfigSpec>& configs);

  [[nodiscard]] const Scenario& scenario() const noexcept {
    return scenario_;
  }
  [[nodiscard]] std::uint64_t rep() const noexcept { return rep_; }

 private:
  const std::vector<double>& release_times();

  Scenario scenario_;
  std::uint64_t rep_;
  ConfigSpec baseline_spec_;
  core::Pack pack_;
  checkpoint::Model resilience_;
  core::Engine engine_;
  core::RunResult baseline_;
  bool baseline_run_ = false;
  std::vector<double> releases_;
  bool releases_built_ = false;
  std::uint64_t policy_seed_ = 0;
};

/// Simulate one repetition of the scenario point. Deterministic in
/// (scenario, rep) only — the workload and fault streams derive from
/// (scenario.seed, rep), so a cell's outcome is independent of which
/// thread runs it and of any other cell. The baseline (no RC, faults per
/// the scenario) is always simulated to provide the normalizer; a config
/// equal to it reuses that simulation instead of re-running it.
/// Equivalent to CellWorkspace(scenario, rep).evaluate(configs).
[[nodiscard]] CellResult run_cell(const Scenario& scenario,
                                  const std::vector<ConfigSpec>& configs,
                                  std::uint64_t rep);

/// An empty PointResult frame for `configs`: names set, all statistics
/// at zero repetitions. The starting state of incremental folding.
[[nodiscard]] PointResult make_point_frame(
    const std::vector<ConfigSpec>& configs);

/// Fold one cell into a point's statistics. Folding cells in repetition
/// order is exactly aggregate_point — the incremental form lets a grid
/// run aggregate each cell as the in-order committer retires it, holding
/// O(points) state instead of every CellResult of the grid.
void fold_cell(PointResult& point, const CellResult& cell);

/// Fold per-repetition cells (indexed by rep) into the reported
/// statistics. Cells are always folded in rep order, so the result is
/// independent of the schedule that produced them.
[[nodiscard]] PointResult aggregate_point(const std::vector<ConfigSpec>& configs,
                                          const std::vector<CellResult>& cells);

/// Evaluate `configs` at the scenario point: scenario.runs cells through
/// run_cell (repetitions fan out over parallel_for), folded with
/// aggregate_point. Campaigns that span many points should use
/// exp::run_grid (campaign.hpp) instead, which feeds every (point, rep)
/// cell of the whole grid through one global work queue.
[[nodiscard]] PointResult run_point(const Scenario& scenario,
                                    const std::vector<ConfigSpec>& configs);

}  // namespace coredis::exp
