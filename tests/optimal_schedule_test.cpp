/// Tests of Algorithm 1 (optimal schedule without redistribution):
/// feasibility invariants, behavior on homogeneous/heterogeneous packs,
/// the Theorem 1 certification — equality with an exhaustive search over
/// all even allocations on small instances — and the line-9 lookahead
/// short-circuit: identical schedules to the full-pool oracle of
/// full_lookahead.hpp, with columns filled only to the granted depth.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "complexity/moldable.hpp"
#include "core/optimal_schedule.hpp"
#include "full_lookahead.hpp"
#include "speedup/amdahl.hpp"
#include "speedup/synthetic.hpp"
#include "util/units.hpp"

namespace coredis::core {
namespace {

Pack make_pack(std::vector<double> sizes) {
  std::vector<TaskSpec> tasks;
  for (double m : sizes) tasks.push_back({m});
  return Pack(std::move(tasks), std::make_shared<speedup::SyntheticModel>(0.08));
}

checkpoint::Model faulty_model(double mtbf_years = 100.0) {
  return checkpoint::Model(
      {units::years(mtbf_years), 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
}

double schedule_makespan(const ExpectedTimeModel& model,
                         const std::vector<int>& sigma) {
  double makespan = 0.0;
  for (std::size_t i = 0; i < sigma.size(); ++i)
    makespan = std::max(
        makespan, model.expected_time(static_cast<int>(i), sigma[i], 1.0));
  return makespan;
}

TEST(OptimalSchedule, AllocationsAreEvenAndFeasible) {
  const Pack pack = make_pack({2.0e6, 1.6e6, 2.4e6, 1.9e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  const auto sigma = optimal_schedule(model, 64);
  ASSERT_EQ(sigma.size(), 4u);
  int total = 0;
  for (int s : sigma) {
    EXPECT_GE(s, 2);
    EXPECT_EQ(s % 2, 0);
    total += s;
  }
  EXPECT_LE(total, 64);
}

TEST(OptimalSchedule, ThrowsWhenPlatformTooSmall) {
  const Pack pack = make_pack({2.0e6, 1.6e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  EXPECT_THROW(optimal_schedule(model, 2), std::invalid_argument);
}

TEST(OptimalSchedule, ExactFitGivesOnePairEach) {
  const Pack pack = make_pack({2.0e6, 1.6e6, 2.4e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  const auto sigma = optimal_schedule(model, 6);
  for (int s : sigma) EXPECT_EQ(s, 2);
}

TEST(OptimalSchedule, BiggerTasksGetMoreProcessors) {
  const Pack pack = make_pack({2.5e6, 1.5e3});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  const auto sigma = optimal_schedule(model, 40);
  EXPECT_GT(sigma[0], sigma[1]);
}

TEST(OptimalSchedule, HomogeneousPackBalances) {
  const Pack pack = make_pack({2.0e6, 2.0e6, 2.0e6, 2.0e6});
  const checkpoint::Model resilience = faulty_model();
  const ExpectedTimeModel model(pack, resilience);
  const auto sigma = optimal_schedule(model, 32);
  for (int s : sigma) EXPECT_EQ(s, sigma[0]);
}

TEST(OptimalSchedule, FaultFreeUsesAllUsefulProcessors) {
  // With the synthetic profile, fault-free times strictly decrease with j,
  // so the greedy should distribute the entire platform.
  const Pack pack = make_pack({2.0e6, 1.8e6});
  const checkpoint::Model resilience(
      {0.0, 60.0, 1.0, checkpoint::PeriodRule::Young, 0.0});
  const ExpectedTimeModel model(pack, resilience);
  const auto sigma = optimal_schedule(model, 24);
  EXPECT_EQ(sigma[0] + sigma[1], 24);
}

TEST(OptimalSchedule, PaperScaleSmoke) {
  // n = 100 on p = 5000 (the Figure 7/8 corner): the schedule must build
  // quickly and leave a sane allocation (even, feasible, monotone in
  // task size would be too strong with faults, but totals must hold).
  Rng rng(12345);
  const Pack pack = Pack::uniform_random(
      100, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08),
      rng);
  const checkpoint::Model resilience = faulty_model(100.0);
  const ExpectedTimeModel model(pack, resilience);
  const auto sigma = optimal_schedule(model, 5000);
  int total = 0;
  for (int s : sigma) {
    EXPECT_GE(s, 2);
    EXPECT_EQ(s % 2, 0);
    total += s;
  }
  EXPECT_LE(total, 5000);
  EXPECT_GT(total, 200);  // far beyond one pair each on this workload
}

/// Theorem 1 certification: the greedy result equals an exhaustive search
/// over all even allocations, across several packs and platform sizes.
class Theorem1Certification
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(Theorem1Certification, GreedyMatchesBruteForce) {
  const auto [p, mtbf_years] = GetParam();
  const std::vector<std::vector<double>> workloads = {
      {2.0e6, 1.6e6},
      {2.0e6, 1.6e6, 2.4e6},
      {2.5e6, 1.5e3, 8.0e5},
      {1.5e6, 1.5e6, 1.5e6, 1.5e6},
      {2.2e6, 9.0e5, 1.1e6, 2.5e6},
  };
  for (const auto& sizes : workloads) {
    if (p < 2 * static_cast<int>(sizes.size())) continue;
    const Pack pack = make_pack(sizes);
    const checkpoint::Model resilience = faulty_model(mtbf_years);
    const ExpectedTimeModel model(pack, resilience);

    const auto sigma = optimal_schedule(model, p);
    const double greedy = schedule_makespan(model, sigma);
    const double brute = complexity::brute_force_rigid(
        pack.size(), p,
        [&](int task, int j) { return model.expected_time(task, j, 1.0); },
        /*even_only=*/true, /*min_alloc=*/2);
    EXPECT_NEAR(greedy, brute, 1e-9 * brute)
        << "p=" << p << " mtbf=" << mtbf_years << " n=" << sizes.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Theorem1Certification,
    ::testing::Combine(::testing::Values(4, 6, 8, 10, 12, 16),
                       ::testing::Values(100.0, 10.0, 1.0)));

/// Algorithm 1 on its own evaluator against the full-lookahead oracle on
/// a second, independent model: the short-circuited line 9 must return
/// the same sigma on every pack, platform (odd p included), resilience
/// context and speedup profile of the grid. The oracle fills every
/// popped column to the whole pool, O(n·p) records, so n = 1000 stops at
/// p = 5001; the smaller packs sweep p up to 20001. Small packs on big
/// platforms reach their Eq. 6 optimum, the plateau where only the deep
/// tr(pmax) read decides; the grid must hit it.
TEST(OptimalSchedule, MatchesFullLookaheadOracle) {
  const std::vector<std::shared_ptr<const speedup::Model>> profiles = {
      std::make_shared<speedup::SyntheticModel>(0.08),
      std::make_shared<speedup::SyntheticModel>(0.3),
      std::make_shared<speedup::AmdahlModel>(0.0),
      std::make_shared<speedup::AmdahlModel>(0.08),
  };
  const std::vector<double> mtbf_years = {0.0, 100.0, 1.0};  // 0: fault-free
  constexpr long long kOracleCells = 5'100'000;  // n·p bound on the oracle
  long long plateaus = 0;
  long long cases = 0;
  for (const int n : {1, 2, 10, 100, 1000}) {
    for (const int p : {2 * n, 2 * n + 1, 3 * n + 1, 10 * n + 1, 5001,
                        10000, 20001}) {
      if (p < 2 * n || static_cast<long long>(n) * p > kOracleCells) continue;
      for (std::size_t f = 0; f < profiles.size(); ++f) {
        for (const double mtbf : mtbf_years) {
          SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << p
                                            << " profile=" << f
                                            << " mtbf=" << mtbf);
          Rng rng(static_cast<std::uint64_t>(n) * 1'000'003ULL +
                  static_cast<std::uint64_t>(p) * 7ULL + f);
          const Pack pack =
              Pack::uniform_random(n, 1.5e6, 2.5e6, profiles[f], rng);
          const checkpoint::Model resilience(
              {mtbf > 0.0 ? units::years(mtbf) : 0.0, 60.0, 1.0,
               checkpoint::PeriodRule::Young, 0.0});

          const ExpectedTimeModel model(pack, resilience);
          const std::vector<int> sigma = optimal_schedule(model, p);

          const ExpectedTimeModel oracle_model(pack, resilience);
          TrEvaluator oracle_evaluator(oracle_model, p - p % 2);
          std::vector<int> tasks(static_cast<std::size_t>(n));
          std::iota(tasks.begin(), tasks.end(), 0);
          const oracle::FullLookahead oracle = oracle::full_lookahead_targets(
              oracle_evaluator, tasks,
              std::vector<double>(static_cast<std::size_t>(n), 1.0),
              p - 2 * n);
          ASSERT_EQ(sigma, oracle.targets);
          plateaus += oracle.plateaus;
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 250);
  EXPECT_GT(plateaus, 0) << "the grid never reached the deep-read branch";
}

/// The fill-depth guard: on the cold n = 1000, p = 10000 point, where the
/// whole pool is handed out, Algorithm 1 must leave every task's
/// alpha = 1 column exactly as deep as its allocation — one prefix entry
/// per granted pair. A full-pool lookahead fills ~3.5M entries here.
TEST(OptimalSchedule, ColumnsFillOnlyToTheGrantedAllocation) {
  constexpr int n = 1000;
  constexpr int p = 10000;
  Rng rng(3);
  const Pack pack = Pack::uniform_random(
      n, 1.5e6, 2.5e6, std::make_shared<speedup::SyntheticModel>(0.08), rng);
  const checkpoint::Model resilience = faulty_model(100.0);
  const ExpectedTimeModel model(pack, resilience);
  TrEvaluator evaluator(model, p);
  const std::vector<int> sigma = optimal_schedule(model, p, evaluator);
  ASSERT_EQ(std::accumulate(sigma.begin(), sigma.end(), 0), p);

  std::size_t pairs = 0;
  std::size_t filled = 0;
  for (int i = 0; i < n; ++i) {
    pairs += static_cast<std::size_t>(sigma[static_cast<std::size_t>(i)] / 2);
    filled += evaluator.column(i, 1.0).prefix().size();
  }
  EXPECT_EQ(filled, pairs);
}

}  // namespace
}  // namespace coredis::core
