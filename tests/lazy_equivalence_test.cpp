/// \file lazy_equivalence_test.cpp
/// The incremental-replanning equivalence battery (DESIGN.md sections 6.5
/// and 8.2): the lazy scan machinery (carried EndLocal verdicts, the
/// prefilled flat IteratedGreedy regrow, the tournament tree) must
/// reproduce the from-scratch decision sequences byte for byte, and the
/// online scheduler must not see its shared warm cache. Three layers:
///
///  * whole-run engine equivalence over randomized grids, both fault
///    laws, every policy pair — lazy (default) vs EngineConfig::
///    eager_scans in the same test run;
///  * the online scheduler over a shared warm workspace vs the
///    self-contained overload, over both generated arrival laws (the
///    grant loop itself is locked against the literal one-grant-per-pop
///    regrow of literal_regrow.hpp by extensions_test);
///  * white-box invariants of the carried-verdict cache (the "lazy
///    queue"): a failed scan stores a verdict at the scanned pool and
///    current version, commits invalidate it, and within its horizon the
///    carried drop agrees with an eager re-scan.

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <gtest/gtest.h>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/detail/engine_state.hpp"
#include "core/engine.hpp"
#include "extensions/online.hpp"
#include "fault/exponential.hpp"
#include "fault/weibull.hpp"
#include "speedup/amdahl.hpp"
#include "speedup/synthetic.hpp"
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
  ScanCacheTest()
      : pack_({{2.0e6}, {1.6e6}, {2.4e6}, {1.9e6}},
              std::make_shared<speedup::AmdahlModel>(0.9995)),
        resilience_({units::years(100.0), 60.0, 1.0,
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
