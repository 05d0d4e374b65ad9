#pragma once

/// \file failing_scan_oracle.hpp
/// Test oracle of EndLocal's improvability scan (Alg. 3 lines 10-15) in
/// its literal form: every candidate tE of the scan, each one computed
/// from scratch and sharing nothing with the evaluator's cached columns,
///
///   tE(target) = t + RC^{sigma_init -> target}_i + C_{i,target}
///                + min over even j <= target of Eq. 4 at j,
///
/// with Eq. 9 through redistrib::cost and Eq. 4 through the straight-line
/// expected_time_raw_reference. src/ settles most failing scans with an
/// O(1) work bound instead (core/heuristics.cpp, end_local_work_bound);
/// lazy_equivalence_test checks every rejection of that bound against
/// this oracle: the smallest literal tE must not beat tU.

#include <algorithm>
#include <limits>

#include "core/detail/engine_state.hpp"

namespace coredis::oracle {

/// Smallest literal tE over the even targets in (sigma, sigma + k] of
/// task i at time t and tentative fraction alpha (+inf when k < 2).
inline double literal_scan_min(const core::detail::EngineState& s, int i,
                               double t, double alpha, int sigma, int k) {
  const core::ExpectedTimeModel& model = *s.model;
  double best = std::numeric_limits<double>::infinity();
  double prefix_min = std::numeric_limits<double>::infinity();  // Eq. 6
  for (int j = 2; j <= sigma + k; j += 2) {
    prefix_min =
        std::min(prefix_min, model.expected_time_raw_reference(i, j, alpha));
    if (j <= sigma) continue;
    const double tE = t + s.redistribution_cost(i, j) +
                      model.checkpoint_cost(i, j) + prefix_min;
    best = std::min(best, tE);
  }
  return best;
}

}  // namespace coredis::oracle
