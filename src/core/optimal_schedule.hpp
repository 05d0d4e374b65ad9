#pragma once

/// \file optimal_schedule.hpp
/// Algorithm 1: optimal schedule without redistribution (paper section 4.1).
///
/// Theorem 1: with no redistribution, minimizing the expected makespan is
/// polynomial. The greedy algorithm starts every task at 2 processors (the
/// buddy scheme needs pairs) and repeatedly gives one pair to the task with
/// the largest expected completion time t^R_{i,sigma(i)}(1), as long as its
/// expected time can still decrease; if the current longest task cannot be
/// improved even with *all* remaining processors (line 9's lookahead test),
/// the loop stops and the leftover processors stay available for later
/// redistributions. Complexity O(p log n).
///
/// The lookahead is TrEvaluator::Column::improvable: it reads the next
/// Eq. 6 column entry and goes to the full pool only on a plateau, so a
/// task's alpha = 1 column is filled to the allocation it is granted (plus
/// one pool-deep read for the task that stops the loop), not to ~p.

#include <vector>

#include "core/expected_time.hpp"

namespace coredis::core {

/// Returns sigma, the per-task (even) processor counts, with
/// sum(sigma) <= p. Throws std::invalid_argument if p < 2n (every task
/// needs one buddy pair).
[[nodiscard]] std::vector<int> optimal_schedule(const ExpectedTimeModel& model,
                                                int processors);

/// Same, reusing a caller-provided evaluator cache (hot path for
/// simulations that build many schedules).
[[nodiscard]] std::vector<int> optimal_schedule(const ExpectedTimeModel& model,
                                                int processors,
                                                TrEvaluator& evaluator);

}  // namespace coredis::core
