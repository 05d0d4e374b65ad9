/// \file lazy_equivalence_test.cpp
/// The incremental-replanning equivalence battery (DESIGN.md sections 6.5
/// and 8.2): the lazy scan machinery (carried EndLocal verdicts, the
/// prefilled flat IteratedGreedy regrow, the tournament tree) must
/// reproduce the from-scratch decision sequences byte for byte, and the
/// online scheduler must not see its shared warm cache. Three layers:
///
///  * whole-run engine equivalence over randomized grids, both fault
///    laws, every policy pair — lazy (default) vs EngineConfig::
///    eager_scans in the same test run — and over the contexts that move
///    EndLocal's work bound (fault-free, Amdahl, tabulated, Weibull,
///    zero-RC, p = 100n), each required to have fired the bound;
///  * the online scheduler over a shared warm workspace vs the
///    self-contained overload, over both generated arrival laws (the
///    grant loop itself is locked against the literal one-grant-per-pop
///    regrow of literal_regrow.hpp by extensions_test);
///  * white-box invariants of the carried-verdict cache (the "lazy
///    queue"): a failed scan stores a verdict at the scanned pool and
///    current version, commits invalidate it, and within its horizon the
///    carried drop agrees with an eager re-scan — up to task end for a
///    verdict the work bound settled; and every rejection of that bound
///    checked against the literal failing-scan oracle
///    (failing_scan_oracle.hpp).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/detail/engine_state.hpp"
#include "core/engine.hpp"
#include "extensions/online.hpp"
#include "failing_scan_oracle.hpp"
#include "fault/exponential.hpp"
#include "fault/generator.hpp"
#include "fault/weibull.hpp"
#include "speedup/amdahl.hpp"
#include "speedup/synthetic.hpp"
#include "speedup/table_profile.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace coredis {
namespace {

core::RunResult run_engine(const core::Pack& pack,
                           const checkpoint::Model& resilience, int p,
                           core::EngineConfig config, bool weibull,
                           std::uint64_t seed) {
  core::Engine engine(pack, resilience, p, config);
  const double mtbf = units::years(10.0);
  if (weibull) {
    fault::WeibullGenerator gen(p, mtbf, 0.7, seed);
    return engine.run(gen);
  }
  fault::ExponentialGenerator gen(p, 1.0 / mtbf, Rng(seed));
  return engine.run(gen);
}

void expect_identical(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.redistributions, b.redistributions);
  EXPECT_EQ(a.redistribution_cost, b.redistribution_cost);
  EXPECT_EQ(a.checkpoints_taken, b.checkpoints_taken);
  EXPECT_EQ(a.faults_effective, b.faults_effective);
  EXPECT_EQ(a.faults_discarded, b.faults_discarded);
  EXPECT_EQ(a.time_lost_to_faults, b.time_lost_to_faults);
  ASSERT_EQ(a.completion_times.size(), b.completion_times.size());
  for (std::size_t i = 0; i < a.completion_times.size(); ++i) {
    EXPECT_EQ(a.completion_times[i], b.completion_times[i]);
    EXPECT_EQ(a.final_allocation[i], b.final_allocation[i]);
  }
}

TEST(LazyEquivalence, EngineMatchesEagerScansOnRandomizedGrids) {
  // Randomized packs and platforms through every policy pair under both
  // fault laws: the lazy default and the eager reference must replay the
  // exact same simulation, double for double.
  const core::EndPolicy ends[] = {core::EndPolicy::Local,
                                  core::EndPolicy::Greedy};
  const core::FailurePolicy fails[] = {
      core::FailurePolicy::ShortestTasksFirst,
      core::FailurePolicy::IteratedGreedy};
  Rng rng(20260726ULL);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 4 + static_cast<int>(rng.uniform01() * 10);
    const int p = 2 * n * (2 + static_cast<int>(rng.uniform01() * 4));
    const auto seed = static_cast<std::uint64_t>(rng.uniform01() * 1e9);
    Rng pack_rng(seed);
    const core::Pack pack = core::Pack::uniform_random(
        n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
        pack_rng);
    const checkpoint::Model resilience({units::years(10.0), 60.0, 1.0,
                                        checkpoint::PeriodRule::Young, 0.0});
    for (const bool weibull : {false, true}) {
      for (const auto end : ends) {
        for (const auto fail : fails) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " p=" << p << " weibull=" << weibull
                       << " end=" << to_string(end)
                       << " fail=" << to_string(fail) << " seed=" << seed);
          core::EngineConfig lazy;
          lazy.end_policy = end;
          lazy.failure_policy = fail;
          core::EngineConfig eager = lazy;
          eager.eager_scans = true;
          expect_identical(
              run_engine(pack, resilience, p, lazy, weibull, seed ^ 0xABCD),
              run_engine(pack, resilience, p, eager, weibull, seed ^ 0xABCD));
        }
      }
    }
  }
}

TEST(LazyEquivalence, ZeroRcAblationMatchesEagerScans) {
  Rng pack_rng(77ULL);
  const core::Pack pack = core::Pack::uniform_random(
      8, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
      pack_rng);
  const checkpoint::Model resilience({units::years(10.0), 60.0, 1.0,
                                      checkpoint::PeriodRule::Young, 0.0});
  core::EngineConfig lazy;
  lazy.zero_redistribution_cost = true;
  core::EngineConfig eager = lazy;
  eager.eager_scans = true;
  expect_identical(run_engine(pack, resilience, 64, lazy, false, 11ULL),
                   run_engine(pack, resilience, 64, eager, false, 11ULL));
}

/// One context of the work-bound battery: a speedup profile, a fault
/// law and platform shape the bound's terms read differently (the
/// fault-free C_i = 0, the zero-RC ablation, a flat tabulated tail...).
struct BoundContext {
  const char* name;
  speedup::ModelPtr speedup;
  double mtbf_years;  ///< 0 = fault-free
  bool weibull;
  bool zero_rc;
  int n;
  int processors_per_task;
};

core::RunResult run_context(const BoundContext& ctx, const core::Pack& pack,
                            core::EngineConfig config, std::uint64_t seed) {
  const checkpoint::Model resilience({units::years(ctx.mtbf_years), 60.0, 1.0,
                                      checkpoint::PeriodRule::Young, 0.0});
  const int p = ctx.n * ctx.processors_per_task;
  config.zero_redistribution_cost = ctx.zero_rc;
  core::Engine engine(pack, resilience, p, config);
  if (ctx.mtbf_years <= 0.0) {
    fault::NullGenerator gen(p);
    return engine.run(gen);
  }
  const double mtbf = units::years(ctx.mtbf_years);
  if (ctx.weibull) {
    fault::WeibullGenerator gen(p, mtbf, 0.7, seed);
    return engine.run(gen);
  }
  fault::ExponentialGenerator gen(p, 1.0 / mtbf, Rng(seed));
  return engine.run(gen);
}

TEST(LazyEquivalence, WorkBoundEdgeContextsMatchEagerScans) {
  // EndLocal's work bound (DESIGN.md section 6.5) in the contexts that
  // change its terms: lazy and eager must replay the same simulation,
  // and in every fault-aware context the bound must actually have
  // settled scans — otherwise the comparison proves nothing about it.
  const auto synthetic = std::make_shared<speedup::SyntheticModel>(0.08);
  // A measured-looking profile whose tail is flat past 256 processors
  // (TableModel clamps beyond its last sample).
  const auto table = std::make_shared<speedup::TableModel>(
      2.0e6, std::vector<std::pair<int, double>>{{1, 4.2e7},
                                                 {2, 2.2e7},
                                                 {8, 6.5e6},
                                                 {32, 2.4e6},
                                                 {256, 1.1e6}});
  const BoundContext contexts[] = {
      {"fault-free", synthetic, 0.0, false, false, 12, 10},
      {"amdahl", std::make_shared<speedup::AmdahlModel>(0.08), 10.0, false,
       false, 12, 10},
      {"table", table, 10.0, false, false, 12, 10},
      {"weibull", synthetic, 10.0, true, false, 12, 10},
      {"zero-rc", synthetic, 10.0, false, true, 12, 10},
      {"p=100n", synthetic, 10.0, false, false, 8, 100},
  };
  for (const BoundContext& ctx : contexts) {
    long long rejections = 0;
    for (const std::uint64_t seed : {0x5CA7ULL, 0x5CA8ULL, 0x5CA9ULL}) {
      Rng pack_rng(seed);
      const core::Pack pack = core::Pack::uniform_random(
          ctx.n, 1.5e6, 2.5e6, ctx.speedup, pack_rng);
      for (const auto fail : {core::FailurePolicy::ShortestTasksFirst,
                              core::FailurePolicy::IteratedGreedy}) {
        SCOPED_TRACE(::testing::Message() << ctx.name << " seed=" << seed
                                          << " fail=" << to_string(fail));
        core::EngineConfig lazy;
        lazy.end_policy = core::EndPolicy::Local;
        lazy.failure_policy = fail;
        lazy.profile = true;
        core::EngineConfig eager = lazy;
        eager.eager_scans = true;
        const core::RunResult a = run_context(ctx, pack, lazy, seed);
        const core::RunResult b = run_context(ctx, pack, eager, seed);
        expect_identical(a, b);
        EXPECT_EQ(b.profile.bound_rejections, 0) << "eager scans never bound";
        rejections += a.profile.bound_rejections;
      }
    }
    EXPECT_GT(rejections, 0) << ctx.name << ": the bound never fired";
  }
}

void expect_identical_online(const extensions::OnlineResult& a,
                             const extensions::OnlineResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.redistributions, b.redistributions);
  EXPECT_EQ(a.redistribution_cost, b.redistribution_cost);
  EXPECT_EQ(a.faults_effective, b.faults_effective);
  EXPECT_EQ(a.busy_processor_seconds, b.busy_processor_seconds);
  EXPECT_EQ(a.mean_queue_wait, b.mean_queue_wait);
  ASSERT_EQ(a.completion_times.size(), b.completion_times.size());
  for (std::size_t i = 0; i < a.completion_times.size(); ++i) {
    EXPECT_EQ(a.start_times[i], b.start_times[i]);
    EXPECT_EQ(a.completion_times[i], b.completion_times[i]);
    EXPECT_EQ(a.final_allocation[i], b.final_allocation[i]);
  }
}

TEST(OnlineDeltaEquivalence, SharedWorkspaceMatchesSelfContained) {
  Rng rng(4242ULL);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 6 + static_cast<int>(rng.uniform01() * 8);
    const int p = 10 * n;
    const auto seed = static_cast<std::uint64_t>(rng.uniform01() * 1e9);
    Rng pack_rng(seed);
    const core::Pack pack = core::Pack::uniform_random(
        n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
        pack_rng);
    const checkpoint::Model resilience({units::years(5.0), 60.0, 1.0,
                                        checkpoint::PeriodRule::Young, 0.0});
    for (const auto law :
         {extensions::ArrivalLaw::Poisson, extensions::ArrivalLaw::Bulk}) {
      for (const double load : {0.5, 2.0}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " law=" << extensions::to_string(law)
                     << " load=" << load << " seed=" << seed);
        extensions::ArrivalSpec spec;
        spec.law = law;
        spec.load_factor = load;
        Rng arrivals(seed ^ 0xA881ULL);
        const std::vector<double> releases = extensions::make_release_times(
            spec, pack, resilience, p, arrivals);

        fault::ExponentialGenerator ga(p, 1.0 / units::years(5.0),
                                       Rng(seed ^ 0xFA17ULL));
        const extensions::OnlineResult a =
            extensions::run_online(pack, resilience, p, releases, ga);

        // The same replans over a shared warm workspace (the campaign
        // runner's setup): the warm cache must be invisible in the
        // results.
        core::Engine engine(pack, resilience, p, {});
        {
          fault::ExponentialGenerator warm(p, 1.0 / units::years(5.0),
                                           Rng(seed ^ 0xBEEF));
          (void)engine.run(warm);
        }
        fault::ExponentialGenerator gb(p, 1.0 / units::years(5.0),
                                       Rng(seed ^ 0xFA17ULL));
        const extensions::OnlineResult b = extensions::run_online(
            pack, resilience, p, releases, gb, engine.model(),
            engine.evaluator());
        expect_identical_online(a, b);
      }
    }
  }
}

// ---- white-box invariants of the carried-verdict cache -------------------

class ScanCacheTest : public ::testing::Test {
 protected:
  // Near-serial Amdahl profile: every task plateaus far below its 8
  // processors (Eq. 10's communication term would keep rewarding growth,
  // so the textbook profile isolates the plateau), and no EndLocal grant
  // can pay the redistribution cost — scans fail deterministically and
  // the carried verdicts are exercised.
  explicit ScanCacheTest(double mtbf_years = 100.0)
      : pack_({{2.0e6}, {1.6e6}, {2.4e6}, {1.9e6}},
              std::make_shared<speedup::AmdahlModel>(0.9995)),
        resilience_({units::years(mtbf_years), 60.0, 1.0,
                     checkpoint::PeriodRule::Young, 0.0}),
        model_(pack_, resilience_),
        platform_(40),
        evaluator_(model_, 40) {
    state_.model = &model_;
    state_.platform = &platform_;
    state_.tr = &evaluator_;
    state_.tasks.resize(4);
    for (int i = 0; i < 4; ++i) {
      core::detail::TaskRuntime& task = state_.task(i);
      task.sigma = 8;
      task.alpha = 1.0;
      task.tlastR = 0.0;
      task.tU = evaluator_(i, 8, 1.0);
      state_.refresh_projection(i);
      platform_.acquire(i, 8);
    }
    // Leave 8 processors idle so EndLocal has a pool to scan.
    state_.ensure_lazy_state();
  }

  /// Clone the committed task state into a fresh eager EngineState (same
  /// model/evaluator caches — pure values — but no verdict carry).
  core::detail::EngineState eager_clone(platform::Platform& platform) {
    core::detail::EngineState fresh;
    fresh.model = &model_;
    fresh.platform = &platform;
    fresh.tr = &evaluator_;
    fresh.eager_scans = true;
    fresh.tasks = state_.tasks;
    for (int i = 0; i < fresh.n(); ++i) {
      if (!fresh.task(i).done) platform.acquire(i, fresh.task(i).sigma);
      fresh.refresh_projection(i);
    }
    return fresh;
  }

  core::Pack pack_;
  checkpoint::Model resilience_;
  core::ExpectedTimeModel model_;
  platform::Platform platform_;
  core::TrEvaluator evaluator_;
  core::detail::EngineState state_;
};

TEST_F(ScanCacheTest, FailedScanStoresVerdictAtScannedPoolAndVersion) {
  // Pick a time late enough that growing any task cannot pay off against
  // its committed expectation plus RC: the scan fails for every task and
  // each failure must leave a carried verdict at the current version
  // covering the scanned pool.
  const double t = 0.05 * model_.fault_free_time(0, 8);
  const bool changed = core::detail::end_local(state_, t);
  ASSERT_FALSE(changed);
  for (int i = 0; i < state_.n(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(state_.scan_cache[idx].version, state_.version[idx]);
    EXPECT_EQ(state_.scan_cache[idx].k, 8);  // the idle pool it covered
    EXPECT_GE(state_.scan_cache[idx].horizon, t);
  }
}

TEST_F(ScanCacheTest, CommitBumpsVersionAndKillsTheVerdict) {
  const double t = 0.05 * model_.fault_free_time(0, 8);
  ASSERT_FALSE(core::detail::end_local(state_, t));
  const auto cached_version = state_.scan_cache[0].version;

  // Commit a change on task 0 (grow by a pair): its verdict must die.
  std::vector<int> new_sigma{10, 8, 8, 8};
  std::vector<double> alpha_t;
  for (int i = 0; i < 4; ++i)
    alpha_t.push_back(state_.alpha_tentative(i, t + 1.0));
  state_.commit(t + 1.0, /*faulty=*/-1, new_sigma, alpha_t);
  EXPECT_NE(state_.version[0], cached_version);
  EXPECT_EQ(state_.scan_cache[1].version, state_.version[1]);  // untouched
}

TEST_F(ScanCacheTest, CarriedDropAgreesWithEagerWithinHorizon) {
  // Prime the verdicts, then step forward inside every horizon: the lazy
  // state (which drops on the carried verdicts without probing) and a
  // fresh eager state over the same committed tasks must agree that no
  // redistribution happens — and their task states must stay identical.
  const double t0 = 0.2 * model_.fault_free_time(0, 8);
  bool first = false;
  {
    // Clone the committed state BEFORE the lazy call can mutate it: the
    // first calls must agree, whatever the verdict.
    platform::Platform eager_platform(40);
    core::detail::EngineState fresh = eager_clone(eager_platform);
    first = core::detail::end_local(state_, t0);
    ASSERT_EQ(first, core::detail::end_local(fresh, t0));
  }
  double horizon = std::numeric_limits<double>::infinity();
  for (int i = 0; i < state_.n(); ++i)
    horizon = std::min(horizon, state_.scan_cache[static_cast<std::size_t>(i)].horizon);
  if (first || !std::isfinite(horizon) || horizon <= t0) return;

  for (const double frac : {0.25, 0.6, 1.0}) {
    const double t1 = t0 + frac * (horizon - t0);
    platform::Platform eager_platform(40);
    core::detail::EngineState fresh = eager_clone(eager_platform);
    const bool lazy_changed = core::detail::end_local(state_, t1);
    const bool eager_changed = core::detail::end_local(fresh, t1);
    ASSERT_EQ(lazy_changed, eager_changed) << "t1=" << t1;
    for (int i = 0; i < state_.n(); ++i) {
      EXPECT_EQ(state_.task(i).sigma, fresh.task(i).sigma);
      EXPECT_EQ(state_.task(i).tU, fresh.task(i).tU);
    }
  }
}

/// The same plateaued pack under rare faults (MTBF 10^5 years): Eq. 4's
/// fault overhead is far below the redistribution cost of any grant, so
/// EndLocal's work bound settles the failing scans outright.
class BoundScanCacheTest : public ScanCacheTest {
 protected:
  BoundScanCacheTest() : ScanCacheTest(1.0e5) {}
};

TEST_F(BoundScanCacheTest, RejectedVerdictHoldsUntilTaskEnd) {
  // A scan settled by the work bound at the committed state carries its
  // verdict with no horizon. Step forward to the first task end: the
  // lazy state (dropping on those verdicts) and a fresh eager state must
  // agree at every step, and the literal scan of each carried task must
  // still fail up to that task's own end.
  const double t0 = 0.05 * model_.fault_free_time(0, 8);
  {
    platform::Platform eager_platform(40);
    core::detail::EngineState fresh = eager_clone(eager_platform);
    ASSERT_FALSE(core::detail::end_local(state_, t0));
    ASSERT_FALSE(core::detail::end_local(fresh, t0));
  }
  std::vector<int> forever;
  double first_end = std::numeric_limits<double>::infinity();
  for (int i = 0; i < state_.n(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    first_end = std::min(first_end, state_.task(i).proj_end);
    if (state_.scan_cache[idx].horizon ==
        std::numeric_limits<double>::infinity())
      forever.push_back(i);
  }
  ASSERT_GT(state_.bound_rejections, 0);
  ASSERT_FALSE(forever.empty()) << "no verdict was settled by the bound";

  for (const double frac : {0.1, 0.4, 0.7, 0.95, 0.999}) {
    const double t1 = t0 + frac * (first_end - t0);
    const long long carried = state_.carried_drops;
    platform::Platform eager_platform(40);
    core::detail::EngineState fresh = eager_clone(eager_platform);
    const bool lazy_changed = core::detail::end_local(state_, t1);
    ASSERT_EQ(lazy_changed, core::detail::end_local(fresh, t1))
        << "t1=" << t1;
    ASSERT_FALSE(lazy_changed);
    EXPECT_GE(state_.carried_drops - carried,
              static_cast<long long>(forever.size()));
    for (int i = 0; i < state_.n(); ++i) {
      EXPECT_EQ(state_.task(i).sigma, fresh.task(i).sigma);
      EXPECT_EQ(state_.task(i).tU, fresh.task(i).tU);
    }
  }
  for (const int i : forever) {
    const core::detail::TaskRuntime& task = state_.task(i);
    for (const double frac : {0.25, 0.5, 0.75, 0.99, 0.9999}) {
      const double t1 = t0 + frac * (task.proj_end - t0);
      EXPECT_GE(oracle::literal_scan_min(state_, i, t1,
                                         state_.alpha_tentative(i, t1),
                                         task.sigma, 8),
                task.tU)
          << "task " << i << " t1=" << t1;
    }
  }
}

TEST(WorkBound, EveryRejectionFailsTheLiteralScan) {
  // Random task states in the bound's contexts, probed at random times,
  // pools and in-call grants: the bound never exceeds the smallest
  // literal tE of the scan, and whenever it rejects (reaches tU) that
  // smallest tE does not beat tU either. Every context must reject some
  // states and keep some, so neither half of the check is vacuous.
  struct Context {
    const char* name;
    speedup::ModelPtr speedup;
    double mtbf_years;
    bool zero_rc;
  };
  const auto synthetic = std::make_shared<speedup::SyntheticModel>(0.08);
  const Context contexts[] = {
      {"fault-free", synthetic, 0.0, false},
      {"synthetic", synthetic, 10.0, false},
      {"amdahl", std::make_shared<speedup::AmdahlModel>(0.3), 100.0, false},
      {"table",
       std::make_shared<speedup::TableModel>(
           2.0e6, std::vector<std::pair<int, double>>{
                      {1, 4.2e7}, {4, 1.2e7}, {16, 4.0e6}, {40, 2.6e6}}),
       10.0, false},
      {"zero-rc", synthetic, 10.0, true},
  };
  constexpr int kTasks = 6;
  for (const Context& ctx : contexts) {
    SCOPED_TRACE(ctx.name);
    Rng rng(0x0DDBA11ULL);
    const core::Pack pack =
        core::Pack::uniform_random(kTasks, 1.5e6, 2.5e6, ctx.speedup, rng);
    const checkpoint::Model resilience({units::years(ctx.mtbf_years), 60.0,
                                        1.0, checkpoint::PeriodRule::Young,
                                        0.0});
    const core::ExpectedTimeModel model(pack, resilience);
    core::TrEvaluator evaluator(model, 128);
    core::detail::EngineState s;
    s.model = &model;
    s.tr = &evaluator;
    s.zero_redistribution_cost = ctx.zero_rc;
    s.tasks.resize(kTasks);
    int rejected = 0;
    int kept = 0;
    for (int trial = 0; trial < 2000; ++trial) {
      const int i = static_cast<int>(rng.uniform01() * kTasks);
      core::detail::TaskRuntime& task = s.task(i);
      task.sigma = 2 * (1 + static_cast<int>(rng.uniform01() * 24));
      // Log-uniform in [1e-3, 1]: late tasks gain the least from growth.
      task.alpha = std::pow(10.0, -3.0 * rng.uniform01());
      task.tlastR = 1e6 * rng.uniform01();
      task.tU = task.tlastR + model.expected_time(i, task.sigma, task.alpha);
      const double t =
          task.tlastR + rng.uniform01() * model.simulated_duration(
                                              i, task.sigma, task.alpha);
      const double alpha_t = s.alpha_tentative(i, t);
      // Pairs granted earlier in the same EndLocal call: the key is then
      // the literal tE of the current allocation, as a grant sets it.
      const int granted = 2 * static_cast<int>(rng.uniform01() * 4);
      const int sigma = task.sigma + granted;
      const double tU =
          granted == 0
              ? task.tU
              : oracle::literal_scan_min(s, i, t, alpha_t, sigma - 2, 2);
      const int k = 2 * (1 + static_cast<int>(rng.uniform01() * 24));
      const double bound =
          core::detail::end_local_work_bound(s, i, t, alpha_t, sigma, k) *
          (1.0 - 1e-12);
      const double best = oracle::literal_scan_min(s, i, t, alpha_t, sigma, k);
      EXPECT_LE(bound, best) << "trial " << trial;
      if (bound >= tU) {
        ++rejected;
        EXPECT_GE(best, tU) << "trial " << trial;
      } else {
        ++kept;
      }
    }
    EXPECT_GT(rejected, 0);
    EXPECT_GT(kept, 0);
  }
}

TEST(LazyEquivalence, WeibullHeavyIteratedGreedyBattery) {
  // The fig07-regime stressor at test scale: Weibull faults (shape 0.7 —
  // infant-mortality bursts), fragile MTBF, IteratedGreedy under both
  // end policies, several independent grids. Beyond re-proving the
  // carried-verdict machinery under its heaviest rebuild load, this
  // crosses the vector Eq. 4 pass (DESIGN.md section 6.6) with the
  // scalar reference: the lazy path prefs its regrow columns through
  // the batched SIMD probe_many while the eager branch issues scalar
  // one-slot probes, so lazy == eager here also proves SIMD == scalar
  // through whole simulations, double for double.
  Rng rng(0x5EEDF00DULL);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 10 + static_cast<int>(rng.uniform01() * 14);
    const int p = 10 * n;
    const auto seed = static_cast<std::uint64_t>(rng.uniform01() * 1e9);
    Rng pack_rng(seed);
    const core::Pack pack = core::Pack::uniform_random(
        n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
        pack_rng);
    // 2-year MTBF: roughly 5x the fault pressure of the randomized-grid
    // battery above, so Algorithm 5 rebuilds dominate the run.
    const checkpoint::Model resilience({units::years(2.0), 60.0, 1.0,
                                        checkpoint::PeriodRule::Young, 0.0});
    for (const auto end :
         {core::EndPolicy::Local, core::EndPolicy::Greedy}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << p
                                        << " end=" << to_string(end)
                                        << " seed=" << seed);
      core::EngineConfig lazy;
      lazy.end_policy = end;
      lazy.failure_policy = core::FailurePolicy::IteratedGreedy;
      core::EngineConfig eager = lazy;
      eager.eager_scans = true;
      expect_identical(
          run_engine(pack, resilience, p, lazy, /*weibull=*/true,
                     seed ^ 0x77EBULL),
          run_engine(pack, resilience, p, eager, /*weibull=*/true,
                     seed ^ 0x77EBULL));
    }
  }
}

TEST(ParallelFor, EveryThreadCountFillsTheSameResults) {
  // Which worker computes an index is never semantic: for a body indexed
  // by i, every thread count — including the COREDIS_THREADS-driven
  // default — must fill the exact same result vector.
  constexpr std::size_t kCount = 97;  // not a multiple of any thread count
  const auto value_of = [](std::size_t i) {
    // Deterministic per-index payload with float content (so any
    // cross-thread reordering of *writes* would be caught bit-exactly).
    return std::exp(std::sin(static_cast<double>(i) * 0.37)) +
           static_cast<double>(i * i);
  };
  std::vector<double> reference(kCount);
  for (std::size_t i = 0; i < kCount; ++i) reference[i] = value_of(i);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{3}, std::size_t{7}}) {
    std::vector<double> got(kCount, -1.0);
    parallel_for(kCount, [&](std::size_t i) { got[i] = value_of(i); },
                 threads);
    EXPECT_EQ(got, reference) << "threads=" << threads;
  }

  // COREDIS_THREADS-crossed: threads = 0 resolves the worker count from
  // the environment.
  for (const char* env_threads : {"2", "5"}) {
    ASSERT_EQ(0, setenv("COREDIS_THREADS", env_threads, 1));
    std::vector<double> got(kCount, -1.0);
    parallel_for(kCount, [&](std::size_t i) { got[i] = value_of(i); });
    EXPECT_EQ(got, reference) << "COREDIS_THREADS=" << env_threads;
  }
  unsetenv("COREDIS_THREADS");
}

TEST(ProbeMany, BitIdenticalToScalarQueries) {
  Rng pack_rng(5150ULL);
  const core::Pack pack = core::Pack::uniform_random(
      5, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
      pack_rng);
  const checkpoint::Model resilience({units::years(25.0), 60.0, 1.0,
                                      checkpoint::PeriodRule::Young, 0.0});
  const core::ExpectedTimeModel model(pack, resilience);
  Rng rng(99ULL);
  std::vector<double> batch(64);
  std::vector<double> reference(64);
  for (int trial = 0; trial < 20; ++trial) {
    const int task = static_cast<int>(rng.uniform01() * 5);
    const double alpha = trial == 0 ? 0.0 : rng.uniform01();
    const int h_begin = static_cast<int>(rng.uniform01() * 10);
    const int h_end = h_begin + 1 + static_cast<int>(rng.uniform01() * 60);
    batch.resize(static_cast<std::size_t>(h_end - h_begin));
    reference.resize(batch.size());
    model.probe_many(task, h_begin, h_end, alpha, batch.data());
    model.probe_many_reference(task, h_begin, h_end, alpha,
                               reference.data());
    for (std::size_t h = 0; h < batch.size(); ++h) {
      // Exact bit equality: both paths must run the same raw_kernel over
      // the same cached coefficient bits.
      EXPECT_EQ(batch[h], reference[h])
          << "task=" << task << " alpha=" << alpha << " h="
          << h_begin + static_cast<int>(h);
    }
  }
}

}  // namespace
}  // namespace coredis
