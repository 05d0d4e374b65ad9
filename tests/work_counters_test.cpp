/// \file work_counters_test.cpp
/// Deterministic work gates: operation counts of pinned cold cells.
///
/// Wall-time gates cannot see a 2x slowdown on a noisy host; operation
/// counts do not swing. Each case below is one fresh engine on the
/// cold_hetero cell shape (n = 100 or 1000 tasks on p = 10000
/// processors, exponential faults at a 100-year MTBF, EndLocal with STF
/// or IteratedGreedy), built exactly like
///
///   coredis_sim --n N --p 10000 --mtbf 100 --seed 2 --end local
///               --fail stf|ig --profile
///
/// whose "work:" line prints the same counters. The counts are pinned
/// exactly. A change that adds scan or Eq. 4 work fails here; one that
/// legitimately moves a count updates the expectation and says why in
/// CHANGES.md. Making EndLocal's work bound unreachable, for one, raises
/// the Eq. 4 entries of every cell and zeroes bound_rejections.

#include <cstdint>
#include <gtest/gtest.h>
#include <memory>

#include "core/engine.hpp"
#include "exp/scenario.hpp"
#include "fault/exponential.hpp"
#include "speedup/synthetic.hpp"
#include "util/rng.hpp"

namespace coredis {
namespace {

struct CounterCase {
  int n;
  core::FailurePolicy failure_policy;
  // Pinned RunResult::profile counts.
  long long events;
  long long heuristic_calls;
  long long commits;
  long long end_local_scans;
  long long bound_rejections;
  long long carried_drops;
  long long eq4_entries;
};

constexpr std::uint64_t kSeed = 2;

constexpr CounterCase kCases[] = {
    {100, core::FailurePolicy::ShortestTasksFirst, 128, 95, 38, 9689, 1133,
     964, 468848},
    {100, core::FailurePolicy::IteratedGreedy, 133, 127, 36, 1733, 1033, 3144,
     608675},
    {1000, core::FailurePolicy::ShortestTasksFirst, 1070, 743, 387, 18262,
     7986, 94399, 837404},
    {1000, core::FailurePolicy::IteratedGreedy, 1077, 778, 362, 15002, 6019,
     172414, 2546503},
};

exp::Scenario cell_scenario(int n) {
  exp::Scenario scenario;
  scenario.n = n;
  scenario.p = 10000;
  scenario.mtbf_years = 100.0;
  scenario.seed = kSeed;
  return scenario;
}

/// One cold cell: coredis_sim's pack, resilience model and fault stream
/// for the scenario, on one engine that run() may reuse.
struct Cell {
  explicit Cell(const CounterCase& c)
      : scenario(cell_scenario(c.n)),
        pack([&] {
          Rng workload = Rng::child(scenario.seed, 0);
          return core::Pack::uniform_random(
              scenario.n, scenario.m_inf, scenario.m_sup,
              std::make_shared<speedup::SyntheticModel>(
                  scenario.sequential_fraction),
              workload);
        }()),
        resilience(scenario.resilience_params()),
        engine(pack, resilience, scenario.p) {
    config.end_policy = core::EndPolicy::Local;
    config.failure_policy = c.failure_policy;
    config.profile = true;
  }

  core::EngineProfile run() {
    fault::ExponentialGenerator faults(scenario.p,
                                       1.0 / scenario.mtbf_seconds(),
                                       Rng(scenario.seed ^ 0xFA17ULL));
    return engine.run(faults, config).profile;
  }

  exp::Scenario scenario;
  core::Pack pack;
  checkpoint::Model resilience;
  core::Engine engine;
  core::EngineConfig config;
};

TEST(WorkCounters, PinnedColdCellsDoExactlyTheCommittedWork) {
  for (const CounterCase& c : kCases) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << c.n << " fail=" << to_string(c.failure_policy));
    const core::EngineProfile prof = Cell(c).run();
    EXPECT_EQ(prof.events, c.events);
    EXPECT_EQ(prof.heuristic_calls, c.heuristic_calls);
    EXPECT_EQ(prof.commits, c.commits);
    EXPECT_EQ(prof.end_local_scans, c.end_local_scans);
    EXPECT_EQ(prof.bound_rejections, c.bound_rejections);
    EXPECT_EQ(prof.carried_drops, c.carried_drops);
    EXPECT_EQ(prof.eq4_entries, c.eq4_entries);
  }
}

TEST(WorkCounters, WarmRerunRepeatsTheScansWithFewerFills) {
  // The scan counters are per run; the Eq. 4 count is the fills that run
  // did. A second run of the same engine repeats the same scans over
  // columns the first run left warm, so it fills strictly less.
  Cell cell(kCases[0]);
  const core::EngineProfile cold = cell.run();
  const core::EngineProfile warm = cell.run();
  EXPECT_EQ(cold.eq4_entries, kCases[0].eq4_entries);
  EXPECT_EQ(warm.end_local_scans, cold.end_local_scans);
  EXPECT_EQ(warm.bound_rejections, cold.bound_rejections);
  EXPECT_EQ(warm.carried_drops, cold.carried_drops);
  EXPECT_LT(warm.eq4_entries, cold.eq4_entries);
}

}  // namespace
}  // namespace coredis
