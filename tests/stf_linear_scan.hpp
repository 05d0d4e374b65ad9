#pragma once

/// \file stf_linear_scan.hpp
/// Test oracle of Algorithm 4 (ShortestTasksFirst) in its literal form:
/// alpha^t is computed for every included task up front, and phase 2
/// re-scans all n tasks for the shortest victim before every pair
/// transfer, keeping the first minimum (ties to the smaller index). The
/// commit goes through the full-scan EngineState::commit.
///
/// src/ picks the same victims from a min-heap keyed (tU, index), prices
/// alpha^t only for the victims it probes and commits the exact change
/// list (core/heuristics.cpp); heuristics_test locks the two against each
/// other on seeded states, as full_lookahead.hpp does for Algorithm 1.

#include <cstddef>
#include <limits>
#include <vector>

#include "core/detail/engine_state.hpp"

namespace coredis::oracle {

inline bool stf_linear_scan(core::detail::EngineState& s, double t,
                            int faulty) {
  using core::detail::CandidateProber;
  using core::detail::TaskRuntime;
  const int n = s.n();
  const TaskRuntime& f = s.task(faulty);
  if (f.done || f.released) return false;

  std::vector<int> new_sigma(static_cast<std::size_t>(n));
  std::vector<double> alpha_t(static_cast<std::size_t>(n), 0.0);
  std::vector<double> tU(static_cast<std::size_t>(n));
  std::vector<char> in(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    new_sigma[idx] = s.task(i).sigma;
    tU[idx] = s.task(i).tU;
    if (i == faulty) {
      in[idx] = 1;
      alpha_t[idx] = f.alpha;
    } else if (s.included(i, t)) {
      in[idx] = 1;
      alpha_t[idx] = s.alpha_tentative(i, t);
    }
  }

  const auto fidx = static_cast<std::size_t>(faulty);
  double tU_f = f.tU;
  int k = s.platform->free_count();
  bool changed_any = false;
  const CandidateProber probe_faulty(s, t, faulty, f.alpha);

  // Phase 1: idle pairs to the faulty task, first improving growth.
  while (k >= 2) {
    int grant = -1;
    double grant_tE = 0.0;
    for (int q = 2; q <= k; q += 2) {
      const double tE = probe_faulty(new_sigma[fidx] + q);
      if (tE < tU_f) {
        grant = q;
        grant_tE = tE;
        break;
      }
    }
    if (grant < 0) break;
    new_sigma[fidx] += grant;
    k -= grant;
    tU_f = grant_tE;
    changed_any = true;
  }

  // Phase 2: steal pairs from the shortest task, found by a linear scan.
  while (true) {
    int victim = -1;
    double shortest = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (!in[idx] || i == faulty || new_sigma[idx] < 4) continue;
      if (tU[idx] < shortest) {
        shortest = tU[idx];
        victim = i;
      }
    }
    if (victim < 0) break;
    const auto vidx = static_cast<std::size_t>(victim);
    const CandidateProber probe_victim(s, t, victim, alpha_t[vidx]);

    bool improvable = false;
    double first_tE_f = 0.0;
    double first_tE_s = 0.0;
    for (int q = 2; q <= new_sigma[vidx] - 2; q += 2) {
      const double tE_f = probe_faulty(new_sigma[fidx] + q);
      const double tE_s = probe_victim(new_sigma[vidx] - q);
      if (q == 2) {
        first_tE_f = tE_f;
        first_tE_s = tE_s;
      }
      if (tE_f < tU_f && tE_s < tU_f) {
        improvable = true;
        break;
      }
    }
    if (!improvable) break;

    new_sigma[fidx] += 2;
    new_sigma[vidx] -= 2;
    tU_f = first_tE_f;
    tU[vidx] = first_tE_s;
    changed_any = true;
    if (tU[vidx] > tU_f) break;
  }

  if (changed_any) s.commit(t, faulty, new_sigma, alpha_t);
  return changed_any;
}

}  // namespace coredis::oracle
