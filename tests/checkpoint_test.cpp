/// Tests of the checkpointing substrate: Young/Daly periods and the
/// resilience cost model of section 3.1.

#include <gtest/gtest.h>

#include <cmath>

#include "checkpoint/model.hpp"
#include "checkpoint/period.hpp"
#include "util/units.hpp"

namespace coredis::checkpoint {
namespace {

TEST(Period, YoungFormula) {
  // Eq. 1: tau = sqrt(2 mu C) + C.
  EXPECT_DOUBLE_EQ(young_period(1.0e6, 50.0), std::sqrt(2.0 * 1.0e6 * 50.0) + 50.0);
}

TEST(Period, YoungIsFirstOrderOfDaly) {
  // For C << mu the two estimates agree to first order.
  const double mu = 1.0e8;
  const double cost = 10.0;
  const double young = young_period(mu, cost);
  const double daly = daly_period(mu, cost);
  EXPECT_NEAR(daly / young, 1.0, 1e-3);
}

TEST(Period, DalyClampsPathologicalRegime) {
  // C >= 2 mu: checkpointing every period is hopeless, clamp to mu + C.
  EXPECT_DOUBLE_EQ(daly_period(10.0, 30.0), 40.0);
}

TEST(Period, StrainPredicate) {
  EXPECT_FALSE(period_assumption_strained(1.0e6, 10.0));
  EXPECT_TRUE(period_assumption_strained(50.0, 10.0));
}

TEST(Period, DispatchFixed) {
  EXPECT_DOUBLE_EQ(period_for(PeriodRule::Fixed, 1e6, 5.0, 100.0), 105.0);
  EXPECT_DOUBLE_EQ(period_for(PeriodRule::Young, 1e6, 5.0),
                   young_period(1e6, 5.0));
  EXPECT_DOUBLE_EQ(period_for(PeriodRule::Daly, 1e6, 5.0),
                   daly_period(1e6, 5.0));
}

class ModelTest : public ::testing::Test {
 protected:
  ResilienceParams params_{units::years(100.0), 60.0, 1.0, PeriodRule::Young,
                           0.0};
  Model model_{params_};
};

TEST_F(ModelTest, LambdaAndTaskRates) {
  EXPECT_DOUBLE_EQ(model_.lambda(), 1.0 / units::years(100.0));
  EXPECT_FALSE(model_.fault_free());
  // MTBF of a task on j processors is mu/j (section 3.1).
  EXPECT_DOUBLE_EQ(model_.task_mtbf(10), units::years(100.0) / 10.0);
  EXPECT_DOUBLE_EQ(model_.task_rate(10), 10.0 / units::years(100.0));
}

TEST_F(ModelTest, CostsScaleInverselyWithProcessors) {
  const double c_seq = model_.sequential_cost(2.0e6);  // C_i = c * m_i
  EXPECT_DOUBLE_EQ(c_seq, 2.0e6);
  EXPECT_DOUBLE_EQ(model_.cost(c_seq, 8), c_seq / 8.0);  // C_{i,j} = C_i/j
  EXPECT_DOUBLE_EQ(model_.recovery(c_seq, 8), model_.cost(c_seq, 8));
}

TEST_F(ModelTest, PeriodUsesTaskLevelQuantities) {
  const double c_seq = model_.sequential_cost(2.0e6);
  const int j = 4;
  const double expected = young_period(model_.task_mtbf(j), model_.cost(c_seq, j));
  EXPECT_DOUBLE_EQ(model_.period(c_seq, j), expected);
}

TEST(ModelFaultFree, InfinitePeriod) {
  Model model({0.0, 60.0, 1.0, PeriodRule::Young, 0.0});
  EXPECT_TRUE(model.fault_free());
  EXPECT_TRUE(std::isinf(model.period(1000.0, 2)));
  EXPECT_EQ(model.task_rate(4), 0.0);
}

/// Young's period scales as 1/j in both mu and C, so lambda_j * tau_{i,j}
/// is independent of j — the property that keeps Eq. 4 well-behaved at
/// scale (no overflow as allocations grow).
TEST(ModelScaling, RateTimesPeriodIndependentOfProcessors) {
  Model model({units::years(50.0), 60.0, 1.0, PeriodRule::Young, 0.0});
  const double c_seq = model.sequential_cost(1.7e6);
  const double reference = model.task_rate(2) * model.period(c_seq, 2);
  for (int j = 4; j <= 4096; j *= 2)
    EXPECT_NEAR(model.task_rate(j) * model.period(c_seq, j), reference,
                1e-9 * reference);
}

}  // namespace
}  // namespace coredis::checkpoint
