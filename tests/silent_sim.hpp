#pragma once

/// \file silent_sim.hpp
/// Test oracle of extensions/silent_errors.hpp: a Monte-Carlo simulator
/// of verified checkpointing under silent errors.
///
/// Where silent_errors.hpp derives the expected execution time
/// analytically (geometric retries per period), this one *simulates* the
/// protocol event by event — silent errors strike at rate lambda_s * j,
/// corrupt the running period, are detected by the verification at the
/// period's end, and force recovery + re-execution. extensions_test
/// checks the two agree, which certifies both the algebra and the
/// simulator.

#include <algorithm>
#include <cstdint>

#include "extensions/silent_errors.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace coredis::extensions::silent {

struct SimulationResult {
  double wall_clock = 0.0;  ///< total time to finish the workload
  long long periods_executed = 0;
  long long corrupted_periods = 0;
  long long verifications = 0;
};

/// Simulate executing `total_work` seconds of computation in quanta of
/// `work_quantum` (last quantum may be shorter), each followed by a
/// verification and a checkpoint; corrupted quanta are re-executed after
/// a recovery.
[[nodiscard]] inline SimulationResult simulate(const Params& params,
                                               double total_work,
                                               double work_quantum, Rng& rng) {
  COREDIS_EXPECTS(total_work > 0.0);
  COREDIS_EXPECTS(work_quantum > 0.0);
  const double rate =
      params.error_rate * static_cast<double>(params.processors);

  SimulationResult result;
  double work_left = total_work;
  while (work_left > 1e-12) {
    const double work = std::min(work_left, work_quantum);
    const double span =
        work + params.verification_cost + params.checkpoint_cost;
    ++result.periods_executed;
    ++result.verifications;
    const bool corrupted =
        rate > 0.0 && rng.exponential(rate) < span;  // an SDC struck inside
    result.wall_clock += span;
    if (corrupted) {
      // Detected by the verification at the end of the period: recover
      // from the last (verified) checkpoint and redo the whole quantum.
      ++result.corrupted_periods;
      result.wall_clock += params.recovery_cost;
      continue;
    }
    work_left -= work;
  }
  return result;
}

/// Mean simulated wall-clock over `runs` repetitions (convenience for
/// validating expected_execution_time()).
[[nodiscard]] inline double simulate_mean(const Params& params,
                                          double total_work,
                                          double work_quantum, int runs,
                                          std::uint64_t seed) {
  COREDIS_EXPECTS(runs > 0);
  double sum = 0.0;
  for (int r = 0; r < runs; ++r) {
    Rng rng = Rng::child(seed, static_cast<std::uint64_t>(r));
    sum += simulate(params, total_work, work_quantum, rng).wall_clock;
  }
  return sum / static_cast<double>(runs);
}

}  // namespace coredis::extensions::silent
