#include "policy/adaptive.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "extensions/online.hpp"
#include "policy/registry.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace coredis::policy {

namespace {

// --- bandit ---------------------------------------------------------------

/// Contextual epsilon-greedy over two arms at every scheduling event:
///   rebalance — the full malleable re-pack (admission + Algorithm 1
///               regrow over every unblocked job, paying RC on resizes);
///   hold      — admit newly released jobs onto idle processors only
///               (Algorithm 1 over the new jobs, no resizes, no RC).
/// Context is the effective-fault count over the last `window` decisions
/// bucketed {0, 1, >=2}; the reward of a decision is the measured work
/// throughput — delta work_done per processor-second — settled at the
/// next decision. Exploration draws come from the policy-private stream,
/// so replays are bit-identical in (cell streams, policy_seed).
class BanditSim final : public extensions::OnlineSim {
 public:
  BanditSim(const CellContext& ctx, int window, double explore)
      : OnlineSim(ctx.model, ctx.evaluator, ctx.processors,
                  ctx.release_times()),
        window_(window),
        explore_(explore),
        rng_(ctx.policy_seed) {}

 private:
  static constexpr int kContexts = 3;
  static constexpr int kArms = 2;  // 0 = rebalance, 1 = hold

  void reschedule(double t) override {
    const double done_now = work_done(t);
    if (pending_ && t > last_time_) {
      const double reward = (done_now - last_done_) /
                            ((t - last_time_) * static_cast<double>(p_));
      reward_sum_[last_context_][last_arm_] += reward;
      ++pulls_[last_context_][last_arm_];
      pending_ = false;
    }

    recent_.push_back(faults_since_);
    faults_since_ = 0;
    while (static_cast<int>(recent_.size()) > window_) recent_.pop_front();
    int pressure = 0;
    for (int f : recent_) pressure += f;
    const int context = pressure >= 2 ? 2 : pressure;

    int arm;
    if (rng_.uniform01() < explore_)
      arm = static_cast<int>(rng_() & 1u);
    else if (pulls_[context][0] == 0)
      arm = 0;
    else if (pulls_[context][1] == 0)
      arm = 1;
    else
      arm = reward_sum_[context][1] / pulls_[context][1] >
                    reward_sum_[context][0] / pulls_[context][0]
                ? 1
                : 0;  // ties prefer rebalance

    if (arm == 0)
      repack(t);
    else
      hold(t);

    // Commits at time t do not change work_done(t), so done_now also
    // anchors the next interval.
    last_time_ = t;
    last_done_ = done_now;
    last_context_ = context;
    last_arm_ = arm;
    pending_ = true;
  }

  void on_fault(int) override { ++faults_since_; }

  /// The hold arm: running jobs keep their allocations (no RC); newly
  /// released jobs are admitted while pairs fit into the *idle*
  /// processors and placed by the same greedy over the idle pool.
  void hold(double t) {
    int used = 0;
    for (const auto& job : jobs_)
      if (job.admitted && !job.done) used += job.sigma;
    live_.clear();
    while (!waiting_empty() &&
           used + 2 * (static_cast<int>(live_.size()) + 1) <= p_)
      live_.push_back(admit_next(t));
    if (live_.empty()) return;
    std::sort(live_.begin(), live_.end());

    const std::size_t count = live_.size();
    alpha_now_.assign(count, 1.0);
    caps_.assign(count, extensions::kUncapped);
    const int available = p_ - used - 2 * static_cast<int>(count);
    COREDIS_ASSERT(available >= 0);
    extensions::regrow(evaluator_, live_, alpha_now_, available, caps_,
                       target_, heap_);
    for (std::size_t k = 0; k < count; ++k)
      place_fresh(live_[k], target_[k], t);
  }

  const int window_;
  const double explore_;
  Rng rng_;
  double reward_sum_[kContexts][kArms] = {};
  int pulls_[kContexts][kArms] = {};
  std::deque<int> recent_;  // per-decision effective-fault counts
  int faults_since_ = 0;
  double last_time_ = 0.0;
  double last_done_ = 0.0;
  int last_context_ = 0;
  int last_arm_ = 0;
  bool pending_ = false;
};

class BanditPolicy final : public Policy {
 public:
  BanditPolicy(int window, double explore)
      : window_(window), explore_(explore) {}

  core::RunResult run(const CellContext& ctx) const override {
    return extensions::to_run_result(
        BanditSim(ctx, window_, explore_).run(ctx.faults));
  }

 private:
  int window_;
  double explore_;
};

// --- reshape --------------------------------------------------------------

/// ReSHAPE-style speedup probing: malleable co-scheduling where every
/// growth grant is a probe. The policy measures each job's progress
/// rate (committed work fraction per second, post-blackout) at its
/// current size; when a grown job's measured speedup over its previous
/// size falls short of `gain` of the model-ideal speedup, its
/// allocation is permanently capped at the current size. Shrinks are
/// always allowed, and a job that never resizes is never capped — at
/// vanishing load every job runs solo and the policy degenerates to
/// plain malleable scheduling.
class ReshapeSim final : public extensions::OnlineSim {
 public:
  ReshapeSim(const CellContext& ctx, double gain)
      : OnlineSim(ctx.model, ctx.evaluator, ctx.processors,
                  ctx.release_times()),
        gain_(gain),
        probes_(static_cast<std::size_t>(n_)) {}

 private:
  struct ProbeState {
    int prev_sigma = 0;       ///< size before the last resize
    double prev_rate = -1.0;  ///< measured rate at prev_sigma; < 0 = none
    double span_start = 0.0;  ///< start of the current measured span
    double span_alpha = 1.0;  ///< committed alpha at span start
    int cap = extensions::kUncapped;  ///< permanent cap once probed out
  };

  /// Judge the last growth once rates at both sizes are measured: a
  /// grant that delivered less than `gain` of the model-ideal speedup
  /// caps the job at its current size, permanently.
  int cap(int i, double alpha_now, double t) override {
    const auto& job = jobs_[static_cast<std::size_t>(i)];
    ProbeState& probe = probes_[static_cast<std::size_t>(i)];
    if (probe.cap == extensions::kUncapped && probe.prev_rate > 0.0 &&
        job.sigma > probe.prev_sigma && job.sigma > 0 &&
        t > probe.span_start) {
      const double rate =
          (probe.span_alpha - alpha_now) / (t - probe.span_start);
      if (rate > 0.0) {
        const double ideal = model_.fault_free_time(i, probe.prev_sigma) /
                             model_.fault_free_time(i, job.sigma);
        if (rate / probe.prev_rate < 1.0 + gain_ * (ideal - 1.0))
          probe.cap = job.sigma;
      }
    }
    return probe.cap;
  }

  /// A fresh placement starts the first measured span; a resize records
  /// the rate achieved at the old size and measures the new size from
  /// the end of its blackout.
  void committed(int i, int old_sigma, double alpha_now, double t) override {
    const auto& job = jobs_[static_cast<std::size_t>(i)];
    ProbeState& probe = probes_[static_cast<std::size_t>(i)];
    if (old_sigma == 0) {
      probe = ProbeState{};
      probe.span_start = t;
      return;
    }
    probe.prev_rate =
        t > probe.span_start
            ? (probe.span_alpha - alpha_now) / (t - probe.span_start)
            : -1.0;
    probe.prev_sigma = old_sigma;
    probe.span_start = job.baseline;
    probe.span_alpha = job.alpha;
  }

  /// A rollback restarts the measured span at the recovery point: rates
  /// judge the computation speed of a size, not its fault luck.
  void on_fault(int i) override {
    const auto& job = jobs_[static_cast<std::size_t>(i)];
    ProbeState& probe = probes_[static_cast<std::size_t>(i)];
    probe.span_start = job.baseline;
    probe.span_alpha = job.alpha;
  }

  const double gain_;
  std::vector<ProbeState> probes_;
};

class ReshapePolicy final : public Policy {
 public:
  explicit ReshapePolicy(double gain) : gain_(gain) {}

  core::RunResult run(const CellContext& ctx) const override {
    return extensions::to_run_result(ReshapeSim(ctx, gain_).run(ctx.faults));
  }

 private:
  double gain_;
};

OptionSpec int_option(std::string name, std::string default_value,
                      std::string doc, double min_value, double max_value) {
  OptionSpec spec;
  spec.name = std::move(name);
  spec.type = OptionType::Int;
  spec.default_value = std::move(default_value);
  spec.doc = std::move(doc);
  spec.min_value = min_value;
  spec.max_value = max_value;
  return spec;
}

OptionSpec double_option(std::string name, std::string default_value,
                         std::string doc, double min_value, double max_value) {
  OptionSpec spec;
  spec.name = std::move(name);
  spec.type = OptionType::Double;
  spec.default_value = std::move(default_value);
  spec.doc = std::move(doc);
  spec.min_value = min_value;
  spec.max_value = max_value;
  return spec;
}

}  // namespace

void register_adaptive_policies() {
  register_policy(
      {"bandit",
       "fault-pressure bandit: learns when to re-pack vs hold allocations",
       {int_option("window", "50", "decisions of fault history as context", 1,
                   1e9),
        double_option("explore", "0.1", "epsilon-greedy exploration rate", 0.0,
                      1.0)},
       [](const OptionSet& options) -> std::unique_ptr<Policy> {
         return std::make_unique<BanditPolicy>(
             static_cast<int>(options.get_int("window")),
             options.get_double("explore"));
       }});
  register_policy(
      {"reshape",
       "ReSHAPE-style probe: cap growth that misses the measured speedup",
       {double_option("gain", "0.5",
                      "required fraction of the model-ideal speedup", 0.0,
                      1.0)},
       [](const OptionSet& options) -> std::unique_ptr<Policy> {
         return std::make_unique<ReshapePolicy>(options.get_double("gain"));
       }});
}

}  // namespace coredis::policy
