#pragma once

/// \file literal_regrow.hpp
/// Test oracle of the online re-pack's grant loop (extensions::regrow):
/// Algorithm 1's greedy spelled literally, one grant per pop of a
/// std::priority_queue, with the per-job caps of the adaptive policies.
/// src/ grants in bulk while the head provably keeps the lead and pops a
/// capped-out head in place; both pop the same strict order (longest
/// expected time first, ties to the larger index), so the targets must
/// be equal. The line-9 lookahead is the production
/// TrEvaluator::Column::improvable here — full_lookahead.hpp locks that
/// one against the deep tr(pmax) read.

#include <algorithm>
#include <cstddef>
#include <queue>
#include <utility>
#include <vector>

#include "core/expected_time.hpp"

namespace coredis::oracle {

/// Targets for `live` (job ids) at the given per-job alphas, every job
/// starting at one pair with `available` processors left in the pool;
/// `caps` holds one allocation cap per job.
inline std::vector<int> literal_regrow(core::TrEvaluator& evaluator,
                                       const std::vector<int>& live,
                                       const std::vector<double>& alpha,
                                       int available,
                                       const std::vector<int>& caps) {
  const std::size_t count = live.size();
  std::vector<int> target(count, 2);
  std::priority_queue<std::pair<double, int>> queue;
  for (std::size_t k = 0; k < count; ++k)
    queue.emplace(evaluator(live[k], 2, alpha[k]), static_cast<int>(k));
  while (available >= 2 && !queue.empty()) {
    const auto k = static_cast<std::size_t>(queue.top().second);
    queue.pop();
    const int current = target[k];
    if (current + 2 > caps[k]) continue;  // capped out: try the next job
    const int pmax = std::min(current + available - available % 2, caps[k]);
    const core::TrEvaluator::Column tr = evaluator.column(live[k], alpha[k]);
    if (!tr.improvable(current, pmax)) break;  // the longest job is stuck
    target[k] = current + 2;
    available -= 2;
    queue.emplace(tr(current + 2), static_cast<int>(k));
  }
  return target;
}

}  // namespace coredis::oracle
