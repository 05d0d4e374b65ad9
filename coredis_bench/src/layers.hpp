#pragma once

/// \file layers.hpp
/// Per-layer measurements of the traced run. Each function times one
/// layer's public entry points from outside, over the workload's own
/// cells or requests, and adds its metrics to the report.
///
/// Span names used in the traced end-to-end passes, and the layer each
/// one's self time is charged to (layer_of):
///   exp.parse, exp.plan, exp.block, exp.merge        -> exp.campaign
///   exp.workspace_build, exp.cell, exp.configs       -> exp.cell
///   core.alg1                                        -> core.alg1
///   core.dispatch, core.scan                         -> core.scan_dispatch
///   core.commit                                      -> core.commit
///   serve.parse, serve.lease, serve.evaluate,
///   serve.render, serve.request                      -> serve
/// The root span's own self time is charged to `untraced`: work the spans
/// do not cover.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exp/campaign.hpp"

namespace coredis_bench {

/// A workload's cells: scenario points (each with its `runs`
/// repetitions) crossed with configurations.
struct CellSet {
  std::vector<coredis::exp::Scenario> points;
  std::vector<coredis::exp::ConfigSpec> configs;
  /// Campaign text the points came from; empty when they were not
  /// parsed from one (the exp.parse span is then skipped).
  std::string campaign_text;
};

/// Outcome of the two in-process passes over a CellSet.
struct CampaignPasses {
  std::string artifact;         ///< merged JSONL bytes of the untraced pass
  double untraced_seconds = 0;  ///< pass A (mean of two): top-level timers only
  double traced_seconds = 0;    ///< pass B: the same cells with every span
  int traced_root = Tracer::kNoParent;
};

/// Run the cells in this process, single-threaded, the way the
/// coordinator's workers do. Pass A plans cost-balanced blocks, deals
/// them to `workers` DealWorkers (each to the least-busy one), merges
/// their shard files and keeps the artifact; it yields the exp.plan,
/// exp.block, exp.cost_model, exp.deal and exp.merge metrics. Pass B
/// repeats the same cells through CellWorkspace with span-level
/// tracing and profiled engine configurations; it yields the core.run
/// and exp.cell metrics and the traced end-to-end span tree. Pass A runs
/// again after pass B; the untraced time is the mean of the two.
CampaignPasses measure_campaign_layers(const CellSet& cells,
                                       std::size_t workers,
                                       const ScratchDir& scratch,
                                       Tracer& tracer, Report& report);

/// Algorithm 1 on a fresh and on a warm model, Eq. 4 coefficient fills
/// and the coefficient-table footprint, for one pack of `point`'s size
/// drawn from `seed`.
void measure_core_alg1(const coredis::exp::Scenario& point, std::uint64_t seed,
                       Report& report);

/// Put and take 65536 records, cycling over `records`, through every
/// result-spill backend (ram, file, mmap); each record taken back is
/// checked byte-for-byte.
void measure_spill_backends(const std::vector<std::string>& records,
                            const ScratchDir& scratch, Report& report);

/// Serve-layer timings over `lines` (protocol request lines):
/// parse_request, WorkspacePool checkout, CellWorkspace evaluation and
/// render_response in a sequential replay; Service::submit from up to
/// nproc threads; and the socket transport of a spawned daemon. When
/// `traced_root` is non-null the replay is the traced end-to-end pass:
/// its span tree root is stored there and an untraced replay of the
/// same lines gives trace.overhead_frac.
void measure_serve_layers(const std::vector<std::string>& lines,
                          std::size_t pool_capacity, const ScratchDir& scratch,
                          Tracer& tracer, Report& report, int* traced_root);

/// The layer a span's self time is charged to.
[[nodiscard]] std::string layer_of(const std::string& span_name);

/// Report the layer-sum self-check of a traced end-to-end pass:
/// trace.layer_sum_frac (span-covered share of the root), the share of
/// the largest layer (trace.top_share) and of `intended_layer`
/// (trace.intended_share). Prints the per-layer split to stderr.
void report_layer_shares(const Tracer& tracer, int root,
                         const std::string& intended_layer, Report& report);

/// Tolerance of the layer-sum self-check: the spans must cover at least
/// this share of the traced end-to-end time.
inline constexpr double kLayerSumTolerance = 0.05;

/// A protocol request line for one (tenant, scenario, rep) evaluation;
/// `scenario_text` uses the protocol's ';' line separator.
[[nodiscard]] std::string request_line(std::uint64_t id, const char* op,
                                       const std::string& tenant,
                                       const std::string& scenario_text,
                                       const std::string& configs,
                                       std::uint64_t rep);

/// Every key of `scenario` as protocol scenario text.
[[nodiscard]] std::string scenario_text(const coredis::exp::Scenario& scenario);

}  // namespace coredis_bench
