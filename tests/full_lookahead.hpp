#pragma once

/// \file full_lookahead.hpp
/// Test oracle of Algorithm 1's greedy with its line-9 lookahead spelled
/// out in full: before every grant it reads tr(current) > tr(pmax), the
/// clamped expected time with the *whole* remaining pool, which fills
/// the popped column to pmax. src/ answers the same question from the
/// next column entry (TrEvaluator::Column::improvable, DESIGN.md
/// section 6.2); this reference is what that short-circuit is locked
/// against by optimal_schedule_test, extensions_test and
/// policy_registry_test.
///
/// The loop grants one pair per pop, the paper's own shape: the bulk
/// grants of src/ pop the same strict order (longest expected time
/// first, ties to the larger index), so both yield identical targets.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "core/expected_time.hpp"

namespace coredis::oracle {

struct FullLookahead {
  std::vector<int> targets;  ///< even allocation per live job
  /// Lookaheads that met a plateau, tr(current + 2) == tr(current): the
  /// only case where the deep tr(pmax) read decides the outcome.
  int plateaus = 0;
};

/// Greedy targets over `live` (job ids) at the given per-job alphas,
/// starting every job at one pair with `available` processors left in
/// the pool. `caps` (empty: uncapped) bounds each job's allocation the
/// way extensions::regrow does: a capped-out job is skipped, and an
/// unimprovable longest job stops the pass.
inline FullLookahead full_lookahead_targets(core::TrEvaluator& evaluator,
                                            const std::vector<int>& live,
                                            const std::vector<double>& alpha,
                                            int available,
                                            const std::vector<int>& caps = {}) {
  const std::size_t count = live.size();
  FullLookahead result;
  result.targets.assign(count, 2);
  std::priority_queue<std::pair<double, int>> queue;
  for (std::size_t k = 0; k < count; ++k)
    queue.emplace(evaluator(live[k], 2, alpha[k]), static_cast<int>(k));
  while (available >= 2 && !queue.empty()) {
    const auto k = static_cast<std::size_t>(queue.top().second);
    queue.pop();
    const int current = result.targets[k];
    int pmax = current + available - available % 2;
    if (!caps.empty()) {
      if (current + 2 > caps[k]) continue;  // capped out: try the next job
      pmax = std::min(pmax, caps[k]);
    }
    const core::TrEvaluator::Column tr = evaluator.column(live[k], alpha[k]);
    if (tr(current) == tr(current + 2)) ++result.plateaus;
    if (!(tr(current) > tr(pmax))) break;  // the longest job is stuck
    result.targets[k] = current + 2;
    available -= 2;
    queue.emplace(tr(current + 2), static_cast<int>(k));
  }
  return result;
}

/// The first job to finish when every job of the model's pack is released
/// at t = 0 on `processors` under an empty fault stream: the t = 0 replan
/// sizes all jobs at alpha = 1, and nothing interrupts the job that ends
/// first, so it runs its oracle target for simulated_duration(job,
/// target, 1).
struct FirstFinish {
  std::size_t job = 0;
  int target = 0;
  double time = 0.0;
};

inline FirstFinish simultaneous_first_finish(
    const core::ExpectedTimeModel& model, int processors) {
  const int n = model.pack().size();
  core::TrEvaluator evaluator(model, processors - processors % 2);
  std::vector<int> jobs(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) jobs[static_cast<std::size_t>(i)] = i;
  const FullLookahead oracle = full_lookahead_targets(
      evaluator, jobs, std::vector<double>(jobs.size(), 1.0),
      processors - processors % 2 - 2 * n);
  FirstFinish first;
  first.time = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const double end =
        model.simulated_duration(jobs[k], oracle.targets[k], 1.0);
    if (end < first.time) first = {k, oracle.targets[k], end};
  }
  return first;
}

/// Each job of the model's pack replanned alone at alpha = 1 with the
/// whole pool (arrivals spaced so no two jobs overlap): the oracle target
/// per job, and the plateaus met across all of them.
inline FullLookahead solo_targets(const core::ExpectedTimeModel& model,
                                  int processors) {
  const int p = processors - processors % 2;
  core::TrEvaluator evaluator(model, p);
  FullLookahead solo;
  for (int i = 0; i < model.pack().size(); ++i) {
    const FullLookahead alone =
        full_lookahead_targets(evaluator, {i}, {1.0}, p - 2);
    solo.targets.push_back(alone.targets[0]);
    solo.plateaus += alone.plateaus;
  }
  return solo;
}

}  // namespace coredis::oracle
