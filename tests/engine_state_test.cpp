/// White-box tests of the engine's internal state transitions (the exact
/// bookkeeping of Algorithms 2-5): tentative work fractions, commit
/// baselines (tlastR = t + RC + C, plus D + R for the faulty task),
/// blackout exclusion, the revert-at-no-cost rule of IteratedGreedy, the
/// regrow's deferred column binds, and ShortestTasksFirst's victim heap
/// against the linear-scan oracle of stf_linear_scan.hpp.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <vector>

#include "core/detail/engine_state.hpp"
#include "redistrib/cost.hpp"
#include "speedup/synthetic.hpp"
#include "stf_linear_scan.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace coredis::core::detail {
namespace {

class EngineStateTest : public ::testing::Test {
 protected:
  EngineStateTest()
      : pack_({{2.0e6}, {1.6e6}, {2.4e6}},
              std::make_shared<speedup::SyntheticModel>(0.08)),
        resilience_({units::years(100.0), 60.0, 1.0,
                     checkpoint::PeriodRule::Young, 0.0}),
        model_(pack_, resilience_),
        platform_(32),
        evaluator_(model_, 32) {
    state_.model = &model_;
    state_.platform = &platform_;
    state_.tr = &evaluator_;
    state_.tasks.resize(3);
    for (int i = 0; i < 3; ++i) {
      TaskRuntime& task = state_.task(i);
      task.sigma = 4;
      task.alpha = 1.0;
      task.tlastR = 0.0;
      task.tU = evaluator_(i, 4, 1.0);
      state_.refresh_projection(i);
      platform_.acquire(i, 4);
    }
  }

  Pack pack_;
  checkpoint::Model resilience_;
  ExpectedTimeModel model_;
  platform::Platform platform_;
  TrEvaluator evaluator_;
  EngineState state_;
};

TEST_F(EngineStateTest, AlphaTentativeBeforeFirstCheckpoint) {
  // Before the first checkpoint completes, all elapsed time is work.
  const double tau = model_.period(0, 4);
  const double t = 0.5 * tau;
  const double expected = 1.0 - t / model_.fault_free_time(0, 4);
  EXPECT_NEAR(state_.alpha_tentative(0, t), expected, 1e-12);
}

TEST_F(EngineStateTest, AlphaTentativeSubtractsCompletedCheckpoints) {
  const double tau = model_.period(0, 4);
  const double cost = model_.checkpoint_cost(0, 4);
  const double t = 1.2 * tau;  // one completed checkpoint, still running
  ASSERT_LT(t, model_.simulated_duration(0, 4, 1.0));
  const double expected = 1.0 - (t - cost) / model_.fault_free_time(0, 4);
  EXPECT_NEAR(state_.alpha_tentative(0, t), expected, 1e-12);
}

TEST_F(EngineStateTest, AlphaTentativeClampedAndBlackoutSafe) {
  // Inside a blackout window (t < tlastR) nothing was computed yet.
  state_.task(0).tlastR = 1000.0;
  EXPECT_DOUBLE_EQ(state_.alpha_tentative(0, 500.0), 1.0);
  // Far beyond the projected end, the fraction floors at 0.
  EXPECT_DOUBLE_EQ(state_.alpha_tentative(0, 1.0e12), 0.0);
}

TEST_F(EngineStateTest, IncludedFollowsBlackoutAndLifecycleRules) {
  EXPECT_TRUE(state_.included(0, 10.0));
  state_.task(0).tlastR = 20.0;
  EXPECT_FALSE(state_.included(0, 10.0));  // t <= tlastR: excluded
  EXPECT_FALSE(state_.included(0, 20.0));  // boundary is excluded too
  EXPECT_TRUE(state_.included(0, 20.5));
  state_.task(1).done = true;
  EXPECT_FALSE(state_.included(1, 100.0));
  state_.task(2).released = true;
  EXPECT_FALSE(state_.included(2, 100.0));
}

TEST_F(EngineStateTest, CommitGrowthPaysCostAndCheckpoint) {
  const double t = 5000.0;
  std::vector<int> new_sigma{8, 4, 4};
  std::vector<double> alpha_t{0.9, 1.0, 1.0};
  state_.commit(t, /*faulty=*/-1, new_sigma, alpha_t);

  const TaskRuntime& task = state_.task(0);
  EXPECT_EQ(task.sigma, 8);
  EXPECT_DOUBLE_EQ(task.alpha, 0.9);
  const double rc = redistrib::cost(4, 8, pack_.task(0).data_size);
  EXPECT_DOUBLE_EQ(task.tlastR, t + rc + model_.checkpoint_cost(0, 8));
  EXPECT_DOUBLE_EQ(task.tU, task.tlastR + evaluator_(0, 8, 0.9));
  EXPECT_DOUBLE_EQ(task.proj_end,
                   task.tlastR + model_.simulated_duration(0, 8, 0.9));
  EXPECT_EQ(platform_.allocated(0), 8);
  EXPECT_EQ(state_.redistributions, 1);
  EXPECT_DOUBLE_EQ(state_.redistribution_cost_total, rc);
  // One initial checkpoint on the new allocation, plus the periodic ones
  // completed before t (none here: t << tau).
  EXPECT_EQ(state_.checkpoints_taken, 1);
}

TEST_F(EngineStateTest, CommitFaultyTaskKeepsDowntimeRecoveryBase) {
  // Simulate Algorithm 2's rollback on task 1, then a redistribution.
  const double t = 3000.0;
  TaskRuntime& faulty = state_.task(1);
  faulty.alpha = 0.8;
  faulty.tlastR = t + resilience_.downtime() + model_.recovery_time(1, 4);
  const double rollback_base = faulty.tlastR;

  std::vector<int> new_sigma{4, 8, 4};
  std::vector<double> alpha_t{1.0, 0.8, 1.0};
  state_.commit(t, /*faulty=*/1, new_sigma, alpha_t);

  const double rc = redistrib::cost(4, 8, pack_.task(1).data_size);
  // Section 3.3.2: tlastR = t + D + R + RC + C for the struck task.
  EXPECT_DOUBLE_EQ(faulty.tlastR,
                   rollback_base + rc + model_.checkpoint_cost(1, 8));
  EXPECT_EQ(faulty.sigma, 8);
}

TEST_F(EngineStateTest, CommitShrinksBeforeGrowing) {
  // Moving one pair from task 2 to task 0 through an empty pool: the
  // release must happen before the acquisition or the pool underflows.
  ASSERT_EQ(platform_.free_count(), 32 - 12);
  platform_.acquire(5, 20);  // exhaust the pool
  ASSERT_EQ(platform_.free_count(), 0);
  std::vector<int> new_sigma{6, 4, 2};
  std::vector<double> alpha_t{1.0, 1.0, 1.0};
  state_.commit(100.0, -1, new_sigma, alpha_t);
  EXPECT_EQ(platform_.allocated(0), 6);
  EXPECT_EQ(platform_.allocated(2), 2);
  EXPECT_EQ(platform_.free_count(), 0);
}

TEST_F(EngineStateTest, CommitIgnoresUnchangedDoneAndReleased) {
  state_.task(1).done = true;
  state_.task(2).released = true;
  std::vector<int> new_sigma{4, 8, 8};  // changes on ineligible tasks
  std::vector<double> alpha_t{1.0, 1.0, 1.0};
  state_.commit(50.0, -1, new_sigma, alpha_t);
  EXPECT_EQ(state_.redistributions, 0);
  EXPECT_EQ(state_.task(1).sigma, 4);
  EXPECT_EQ(state_.task(2).sigma, 4);
}

TEST_F(EngineStateTest, EndLocalGrantsPairsToLongestTask) {
  // Free 8 processors; the longest task (largest tU) must receive pairs.
  int longest = 0;
  for (int i = 1; i < 3; ++i)
    if (state_.task(i).tU > state_.task(longest).tU) longest = i;
  const int before = state_.task(longest).sigma;
  const bool changed = end_local(state_, 1000.0);
  EXPECT_TRUE(changed);
  EXPECT_GT(state_.task(longest).sigma, before);
  // Conservation: nobody shrank, pool did not underflow.
  int total = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(state_.task(i).sigma, before == 4 ? 4 : 2);
    total += state_.task(i).sigma;
  }
  EXPECT_LE(total, 32 - platform_.allocated(5));
}

TEST_F(EngineStateTest, IteratedGreedyRevertingToOriginalCostsNothing) {
  // With no faulty task and a balanced pack, IteratedGreedy should
  // rebuild into (close to) the same allocation; tasks whose final sigma
  // equals the original must not pay any redistribution.
  // Use zero free processors so nothing can actually improve.
  platform_.acquire(7, platform_.free_count());
  const double tu_before[3] = {state_.task(0).tU, state_.task(1).tU,
                               state_.task(2).tU};
  const bool changed = iterated_greedy(state_, 2000.0, /*faulty=*/-1);
  for (int i = 0; i < 3; ++i) {
    if (state_.task(i).sigma == 4) {
      EXPECT_DOUBLE_EQ(state_.task(i).tU, tu_before[i]) << "task " << i;
    }
  }
  // Whatever happened, total redistribution cost only counts real moves.
  if (!changed) {
    EXPECT_EQ(state_.redistributions, 0);
  }
}

TEST_F(EngineStateTest, ShortestTasksFirstStealsFromShortest) {
  // Give the platform no free processors; make task 0 the faulty longest
  // and task 1 clearly the shortest with spare pairs.
  platform_.acquire(7, platform_.free_count());
  TaskRuntime& faulty = state_.task(0);
  faulty.alpha = 1.0;
  faulty.tlastR = 1.0e6 + resilience_.downtime() + model_.recovery_time(0, 4);
  faulty.tU = faulty.tlastR + evaluator_(0, 4, 1.0);

  TaskRuntime& shortest = state_.task(1);
  shortest.alpha = 0.05;  // nearly done
  shortest.tU = 1.0e6 + evaluator_(1, 4, 0.05);

  const int faulty_before = faulty.sigma;
  const int victim_before = shortest.sigma;
  const bool changed = shortest_tasks_first(state_, 1.0e6, 0);
  if (changed) {
    EXPECT_GT(faulty.sigma, faulty_before);
    EXPECT_LT(shortest.sigma, victim_before);
    EXPECT_GE(shortest.sigma, 2);
    EXPECT_EQ(faulty.sigma + state_.task(1).sigma + state_.task(2).sigma, 12);
  }
}

TEST_F(EngineStateTest, ZeroRedistributionCostFlagDropsRc) {
  state_.zero_redistribution_cost = true;
  EXPECT_DOUBLE_EQ(state_.redistribution_cost(0, 8), 0.0);
  state_.zero_redistribution_cost = false;
  EXPECT_GT(state_.redistribution_cost(0, 8), 0.0);
}

TEST_F(EngineStateTest, EventIndexAgreesWithLinearScans) {
  // Same state, queried with and without the index, through a sequence of
  // projection updates and completions.
  EXPECT_EQ(state_.use_event_index, false);
  const int linear_first = state_.earliest_unfinished();
  const double linear_longest = state_.longest_expected_finish();

  state_.build_event_index();
  EXPECT_EQ(state_.earliest_unfinished(), linear_first);
  EXPECT_DOUBLE_EQ(state_.longest_expected_finish(), linear_longest);

  // Push task 0's projection way out and its tU up; the index must track.
  state_.task(0).tlastR = 5.0e7;
  state_.task(0).tU = 9.0e7;
  state_.refresh_projection(0);
  state_.use_event_index = false;
  const int scan_first = state_.earliest_unfinished();
  const double scan_longest = state_.longest_expected_finish();
  state_.use_event_index = true;
  EXPECT_EQ(state_.earliest_unfinished(), scan_first);
  EXPECT_DOUBLE_EQ(state_.longest_expected_finish(), scan_longest);

  // Completion removes the task from both queues.
  state_.mark_done(scan_first);
  state_.use_event_index = false;
  const int next_first = state_.earliest_unfinished();
  state_.use_event_index = true;
  EXPECT_EQ(state_.earliest_unfinished(), next_first);
}

TEST_F(EngineStateTest, UnfinishedEndingByMatchesLinearFilter) {
  state_.build_event_index();
  const double bound = state_.task(1).proj_end;  // includes the boundary
  std::vector<int> indexed;
  state_.unfinished_ending_by(bound, /*except=*/2, indexed);
  state_.use_event_index = false;
  std::vector<int> linear;
  state_.unfinished_ending_by(bound, /*except=*/2, linear);
  EXPECT_EQ(indexed, linear);
  EXPECT_FALSE(indexed.empty());
}

/// A hand-built engine state with its own pack, model, platform and
/// evaluator. The members point at each other, so a world never moves;
/// two worlds built the same way are identical and independent.
class World {
 public:
  World(const std::vector<double>& sizes, int processors)
      : pack_(make_tasks(sizes), std::make_shared<speedup::SyntheticModel>(0.08)),
        resilience_({units::years(20.0), 60.0, 1.0,
                     checkpoint::PeriodRule::Young, 0.0}),
        model_(pack_, resilience_),
        platform_(processors),
        tr_(model_, processors) {
    state_.model = &model_;
    state_.platform = &platform_;
    state_.tr = &tr_;
    state_.tasks.resize(sizes.size());
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  EngineState& state() { return state_; }
  platform::Platform& platform() { return platform_; }
  TrEvaluator& tr() { return tr_; }
  const ExpectedTimeModel& model() const { return model_; }
  double downtime() const { return resilience_.downtime(); }

  /// Install task i at (sigma, alpha, tlastR) with its consistent tU and
  /// hand it sigma processors.
  void place(int i, int sigma, double alpha, double tlastR) {
    TaskRuntime& task = state_.task(i);
    task.sigma = sigma;
    task.alpha = alpha;
    task.tlastR = tlastR;
    task.tU = tlastR + tr_(i, sigma, alpha);
    state_.refresh_projection(i);
    platform_.grant(i, sigma);
  }

 private:
  static std::vector<TaskSpec> make_tasks(const std::vector<double>& sizes) {
    std::vector<TaskSpec> tasks;
    for (const double m : sizes) tasks.push_back({m});
    return tasks;
  }

  Pack pack_;
  checkpoint::Model resilience_;
  ExpectedTimeModel model_;
  platform::Platform platform_;
  TrEvaluator tr_;
  EngineState state_;
};

TEST(IteratedGreedyRegrow, BindsOnePairTasksOnlyWhenTheyWin) {
  // Tasks 0-3 hold one pair and are nearly done: the regrow resets them
  // to their committed tU and never picks them. Tasks 4-6 hold four
  // pairs at full work; task 7 is the struck task, on one pair. With 48
  // spare processors every grant goes to tasks 4-7.
  World world({2.0e6, 2.1e6, 1.9e6, 2.2e6, 2.0e6, 2.3e6, 1.8e6, 2.0e6}, 64);
  EngineState& s = world.state();
  const double t = 5000.0;
  for (int i = 0; i < 4; ++i) world.place(i, 2, 0.1, 0.0);
  for (int i = 4; i < 7; ++i) world.place(i, 8, 1.0, 0.0);
  const int faulty = 7;
  world.place(faulty, 2, 0.9,
              t + world.downtime() + world.model().recovery_time(faulty, 2));
  ASSERT_FALSE(s.eager_scans);

  std::vector<double> alpha_t(8);
  for (int i = 0; i < 8; ++i)
    alpha_t[static_cast<std::size_t>(i)] =
        i == faulty ? s.task(i).alpha : s.alpha_tentative(i, t);
  ASSERT_TRUE(iterated_greedy(s, t, faulty));

  for (int i = 0; i < 8; ++i) {
    const auto& prefix =
        world.tr().column(i, alpha_t[static_cast<std::size_t>(i)]).prefix();
    if (i < 4) {
      EXPECT_EQ(s.task(i).sigma, 2) << "task " << i;
      EXPECT_TRUE(prefix.empty()) << "unpicked one-pair task " << i;
    } else {
      EXPECT_GT(s.task(i).sigma, 2) << "task " << i;
      EXPECT_FALSE(prefix.empty()) << "picked or wide task " << i;
    }
  }
}

/// Bitwise equality, so NaN keys compare equal to themselves.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Seeded ShortestTasksFirst input. The seed's low bits pick the shape:
/// bit 0 draws every tU from three values (ties everywhere), bit 1
/// sprinkles +inf and NaN tU, bit 2 puts the struck task on one pair,
/// bit 3 leaves idle processors for phase 1 (k > 0). Allocations stay
/// small (2-8), so victims often fall below 4.
struct StfCase {
  std::uint64_t seed;
  int faulty = 0;
  double t = 1.0e5;

  void build(World& world) const {
    Rng rng(seed);
    EngineState& s = world.state();
    s.ensure_lazy_state();
    const int n = s.n();
    const bool ties = (seed & 1U) != 0;
    const bool specials = (seed & 2U) != 0;
    const bool faulty_two = (seed & 4U) != 0;
    const double tie_values[3] = {1.5e5, 2.5e5, 4.0e5};
    for (int i = 0; i < n; ++i) {
      TaskRuntime& task = s.task(i);
      if (i == faulty) {
        const int sigma =
            faulty_two ? 2 : 2 * static_cast<int>(rng.uniform_int(1, 3));
        world.place(i, sigma, rng.uniform(0.5, 1.0),
                    t + world.downtime() +
                        world.model().recovery_time(i, sigma));
        continue;
      }
      const int sigma = 2 * static_cast<int>(rng.uniform_int(1, 4));
      const double roll = rng.uniform01();
      if (roll < 0.05) {  // finished: holds nothing
        task.sigma = sigma;
        task.done = true;
        task.tU = 0.0;
        continue;
      }
      world.place(i, sigma, rng.uniform(0.02, 1.0),
                  roll < 0.15 ? t + 100.0  // inside its blackout
                              : t - rng.uniform(0.0, 5.0e4));
      if (roll > 0.95) {  // surrendered early: processors back to the pool
        task.released = true;
        world.platform().release_all(i);
      }
      if (ties) task.tU = tie_values[rng.uniform_int(0, 2)];
      if (specials) {
        const double u = rng.uniform01();
        if (u < 0.15) task.tU = std::numeric_limits<double>::infinity();
        else if (u < 0.25) task.tU = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
};

TEST(ShortestTasksFirstVictims, HeapMatchesLinearScanOracle) {
  int transfers = 0;      // cases where some victim lost a pair
  int below_four = 0;     // ... and one of them ended on a single pair
  int multi_victim = 0;   // ... or more than one victim moved
  int tie_transfers = 0;  // transfers with tied tU keys
  int odd_transfers = 0;  // transfers with +inf and NaN tU keys around
  int phase_one = 0;      // idle pairs went to the struck task
  for (std::uint64_t seed = 0; seed < 256; ++seed) {
    Rng shape(seed ^ 0x5F1ULL);
    const int n = static_cast<int>(shape.uniform_int(3, 24));
    std::vector<double> sizes(static_cast<std::size_t>(n));
    for (double& m : sizes) m = shape.uniform(1.0e6, 3.0e6);
    const int idle = (seed & 8U) != 0 ? 2 * static_cast<int>(shape.uniform_int(1, 6)) : 0;
    StfCase input{seed};
    input.faulty = static_cast<int>(shape.uniform_int(0, static_cast<std::uint64_t>(n - 1)));

    const int processors = 8 * n + idle;
    World heap_world(sizes, processors);
    World scan_world(sizes, processors);
    for (World* world : {&heap_world, &scan_world}) {
      input.build(*world);
      // Everything not granted beyond the idle pool stays taken.
      const int spare = world->platform().free_count() - idle;
      if (spare > 0) world->platform().grant(n + 1, spare);
    }
    EngineState& a = heap_world.state();
    EngineState& b = scan_world.state();
    std::vector<int> before(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) before[static_cast<std::size_t>(i)] = a.task(i).sigma;

    const bool changed_a = shortest_tasks_first(a, input.t, input.faulty);
    const bool changed_b = oracle::stf_linear_scan(b, input.t, input.faulty);
    SCOPED_TRACE(testing::Message() << "seed " << seed << " n " << n);
    ASSERT_EQ(changed_a, changed_b);
    for (int i = 0; i < n; ++i) {
      const TaskRuntime& x = a.task(i);
      const TaskRuntime& y = b.task(i);
      EXPECT_EQ(x.sigma, y.sigma) << "task " << i;
      EXPECT_TRUE(same_bits(x.alpha, y.alpha)) << "task " << i;
      EXPECT_TRUE(same_bits(x.tlastR, y.tlastR)) << "task " << i;
      EXPECT_TRUE(same_bits(x.tU, y.tU)) << "task " << i;
      EXPECT_TRUE(same_bits(x.proj_end, y.proj_end)) << "task " << i;
      EXPECT_EQ(a.version[static_cast<std::size_t>(i)],
                b.version[static_cast<std::size_t>(i)])
          << "task " << i;
    }
    EXPECT_EQ(a.redistributions, b.redistributions);
    EXPECT_TRUE(same_bits(a.redistribution_cost_total, b.redistribution_cost_total));
    EXPECT_EQ(a.checkpoints_taken, b.checkpoints_taken);
    ASSERT_EQ(heap_world.platform().free_count(), scan_world.platform().free_count());
    for (int proc = 0; proc < processors; ++proc)
      EXPECT_EQ(heap_world.platform().owner(proc), scan_world.platform().owner(proc))
          << "processor " << proc;

    int victims = 0;
    bool dropped = false;
    for (int i = 0; i < n; ++i) {
      const int was = before[static_cast<std::size_t>(i)];
      if (i == input.faulty || a.task(i).sigma >= was) continue;
      ++victims;
      dropped = dropped || a.task(i).sigma < 4;
    }
    if (victims > 0) {
      ++transfers;
      if (dropped) ++below_four;
      if (victims > 1) ++multi_victim;
      if ((seed & 1U) != 0) ++tie_transfers;
      if ((seed & 2U) != 0) ++odd_transfers;
    }
    if (idle > 0 && heap_world.platform().free_count() < idle) ++phase_one;
  }
  // The battery must exercise what it claims to lock.
  EXPECT_GT(transfers, 100);
  EXPECT_GT(below_four, 50);
  EXPECT_GT(multi_victim, 50);
  EXPECT_GT(tie_transfers, 30);
  EXPECT_GT(odd_transfers, 30);
  EXPECT_GT(phase_one, 50);
}

}  // namespace
}  // namespace coredis::core::detail
