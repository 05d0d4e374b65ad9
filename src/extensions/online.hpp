#pragma once

/// \file online.hpp
/// Online-arrival malleable co-scheduling (DESIGN.md section 8).
///
/// The paper studies the static case: every task of the pack is released
/// at time 0. Batch schedulers face the dynamic counterpart — jobs arrive
/// over time — and section 2.3 positions packs as "the static counterpart
/// of batch scheduling techniques". This extension closes the loop: jobs
/// carry release dates drawn from a configurable arrival law, wait in a
/// pending queue, and are admitted by re-running the paper's pack
/// machinery (Algorithm 1 over the remaining work fractions) at every
/// arrival and completion event. Admitted jobs are *malleable*: an
/// admission may shrink running jobs to make room, and a completion grows
/// them back — each change paying the section 3.3 redistribution cost
/// plus an initial checkpoint, exactly like the engine's redistributions.
/// The rigid baselines (EASY backfilling / plain FCFS) run the same
/// workload through extensions::run_batch, which accepts the same release
/// dates.
///
/// Faults roll the struck job back to its last checkpoint with the
/// engine's arithmetic, but never trigger a redistribution here: the
/// online scheduler re-plans at arrivals and completions only.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/model.hpp"
#include "core/expected_time.hpp"
#include "core/pack.hpp"
#include "core/types.hpp"
#include "fault/generator.hpp"
#include "util/rng.hpp"

namespace coredis::extensions {

/// How release dates are generated. `None` is the paper's static setting
/// (everything released at time 0).
enum class ArrivalLaw {
  None,     ///< all jobs released at time 0 (the paper's pack)
  Poisson,  ///< i.i.d. exponential inter-arrival times
  Bulk,     ///< evenly spaced bulk phases of n / phases jobs each
  Trace,    ///< explicit release dates loaded from a file
};

[[nodiscard]] std::string to_string(ArrivalLaw law);

/// The arrival process of one scenario. `load_factor` is the offered load
/// rho: the arrival rate is chosen so the long-run arriving
/// processor-seconds per second equal rho * p, where each job's demand is
/// estimated as (best-useful allocation) x (fault-free time on it). Thus
/// rho -> 0 isolates every job (all schedulers converge) and rho >= 1
/// saturates the platform (the workload degenerates toward the paper's
/// simultaneous pack).
struct ArrivalSpec {
  ArrivalLaw law = ArrivalLaw::None;
  double load_factor = 1.0;  ///< offered load rho; > 0
  int bulk_phases = 4;       ///< Bulk only: number of release waves
  std::string trace_path;    ///< Trace only: release dates, one per line
};

/// Release dates for the pack's jobs, deterministic in (spec, pack, rng
/// state). Poisson draws come from `rng` (pass Rng::child(seed, rep) for
/// campaign sharding); Bulk and Trace never touch it. Trace dates are
/// read from `spec.trace_path` (>= pack.size() entries, seconds, sorted
/// ascending after load) and divided by the load factor so the same
/// trace sweeps in density. Throws std::runtime_error on an unreadable
/// or short trace file.
[[nodiscard]] std::vector<double> make_release_times(
    const ArrivalSpec& spec, const core::Pack& pack,
    const checkpoint::Model& resilience, int processors, Rng& rng);

/// Outcome of one online simulation.
struct OnlineResult {
  double makespan = 0.0;                 ///< latest completion
  std::vector<double> start_times;       ///< first admission per job
  std::vector<double> completion_times;  ///< per job
  std::vector<int> final_allocation;     ///< sigma at each job's end
  int faults_effective = 0;              ///< faults that rolled a job back
  int redistributions = 0;               ///< committed allocation changes
  double redistribution_cost = 0.0;      ///< total RC seconds paid
  double busy_processor_seconds = 0.0;   ///< for energy accounting
  double mean_queue_wait = 0.0;          ///< mean (start - release)
};

/// OnlineResult as the campaign's per-run record: the one conversion
/// every arrival-driven policy shares.
[[nodiscard]] core::RunResult to_run_result(OnlineResult&& result);

/// Algorithm 1's greedy regrow (DESIGN.md section 8.2), the grant loop of
/// every arrival-driven re-pack: each job of `live` starts at one pair
/// (target[k] = 2) with `available` processors left in the pool; the
/// longest job (expected time at alpha[k], ties to the larger k) takes a
/// pair while its line-9 lookahead can still improve within
/// min(pool, caps[k]). A capped-out job leaves the heap and the
/// next-longest job gets its turn; an unimprovable longest job stops the
/// pass. `caps` holds one cap per job (kUncapped: none). A job keeps the
/// lead through consecutive grants without heap work while its rescored
/// entry beats both heap children, so the pops — hence the targets —
/// equal the one-grant-per-pop std::priority_queue loop (locked against
/// it by tests). `heap` is caller-owned scratch.
inline constexpr int kUncapped = std::numeric_limits<int>::max();
void regrow(core::TrEvaluator& evaluator, const std::vector<int>& live,
            const std::vector<double>& alpha, int available,
            const std::vector<int>& caps, std::vector<int>& target,
            std::vector<std::pair<double, int>>& heap);

/// The one online simulator (DESIGN.md sections 8 and 10.3): the job
/// table, the arrival order with its waiting queue, and the release /
/// blackout-exit / fault / completion event loop. Faults roll the struck
/// job back to its last checkpoint with the engine's arithmetic; release,
/// blackout-exit and completion events call reschedule(), whose default
/// is the malleable re-pack of run_online. The adaptive policies
/// (policy/adaptive.cpp) derive from it and override the decision
/// (reschedule), the re-pack's per-job caps and commit bookkeeping (cap,
/// committed) and the fault hook (on_fault). One run() per object.
class OnlineSim {
 public:
  /// `model` and `evaluator` are built over the same pack; `processors`
  /// is rounded down to even (allocations are buddy pairs). The
  /// simulator keeps references to `model`, `evaluator` and
  /// `release_times` (one per pack task), which must outlive it.
  OnlineSim(const core::ExpectedTimeModel& model,
            core::TrEvaluator& evaluator, int processors,
            const std::vector<double>& release_times);
  virtual ~OnlineSim() = default;
  OnlineSim(const OnlineSim&) = delete;
  OnlineSim& operator=(const OnlineSim&) = delete;

  /// Drive the event loop until every job completed.
  [[nodiscard]] OnlineResult run(fault::Generator& faults);

 protected:
  /// Runtime state of one online job.
  struct Job {
    bool admitted = false;
    bool done = false;
    double alpha = 1.0;     ///< remaining work fraction, committed at baseline
    int sigma = 0;          ///< current (even) allocation; 0 before admission
    double baseline = 0.0;  ///< start of the current checkpoint pattern;
                            ///< also the end of any blackout window
    double proj_end = 0.0;  ///< fault-free projected completion
    double busy_mark = 0.0; ///< last allocation change (busy accounting)
  };

  /// The scheduling decision at a release, blackout-exit or completion
  /// event at time t.
  virtual void reschedule(double t) { repack(t); }
  /// Called after a fault rolled `job` back (its baseline is the end of
  /// the recovery window).
  virtual void on_fault(int /*job*/) {}
  /// Allocation cap of live job i in repack's regrow, asked once per live
  /// job and event with its tentative alpha.
  virtual int cap(int /*i*/, double /*alpha_now*/, double /*t*/) {
    return kUncapped;
  }
  /// Called after repack placed job i fresh (old_sigma == 0) or resized
  /// it from old_sigma.
  virtual void committed(int /*i*/, int /*old_sigma*/,
                         double /*alpha_now*/, double /*t*/) {}

  /// The malleable re-pack: admit released jobs in release order while
  /// one pair per live job still fits, regrow every job outside a
  /// blackout window over the pool the windows leave, commit the changes.
  void repack(double t);

  /// Remaining work fraction of job i at time t, the engine's
  /// alpha_tentative arithmetic: elapsed time minus completed checkpoints
  /// counts as work (a redistribution starts with a checkpoint that
  /// preserves the running period).
  [[nodiscard]] double tentative_alpha(int i, double t) const;
  /// Total work fraction completed across all jobs at time t. Commits at
  /// t leave it unchanged (the re-pack baselines carry the tentative
  /// alphas forward); fault rollbacks lower it.
  [[nodiscard]] double work_done(double t) const;
  [[nodiscard]] bool waiting_empty() const {
    return waiting_head_ >= waiting_.size();
  }
  /// Admit the next waiting job (release order) at time t and return it;
  /// its allocation is assigned by place_fresh.
  int admit_next(double t);
  /// Fresh placement: no data to move, the pattern starts here.
  void place_fresh(int i, int target, double t);
  /// Malleable resize: commit the work done so far, pay the Eq. 9
  /// redistribution plus an initial checkpoint on the new allocation,
  /// and black out until both complete.
  void commit_resize(int i, int target, double alpha_now, double t);

  const core::ExpectedTimeModel& model_;
  core::TrEvaluator& evaluator_;
  const int p_;
  const int n_;
  const std::vector<double>& release_times_;
  std::vector<Job> jobs_;
  OnlineResult result_;
  // Scratch of one re-pack (regrow's inputs and outputs), reused across
  // events.
  std::vector<int> live_;
  std::vector<double> alpha_now_;
  std::vector<int> caps_;
  std::vector<int> target_;
  std::vector<std::pair<double, int>> heap_;

 private:
  std::vector<int> waiting_;  ///< released, not yet admitted, arrival order
  std::size_t waiting_head_ = 0;
};

/// Simulate the malleable online execution: jobs released per
/// `release_times` (one per pack task, non-negative), admitted and
/// re-balanced by the Algorithm 1 greedy over remaining work at every
/// arrival and completion event, rolled back on faults. Deterministic in
/// (pack, release_times, fault stream). `processors` is rounded down to
/// even (allocations are buddy pairs); a job in a blackout window
/// (paying a redistribution or recovering from a fault) keeps its
/// allocation until the next event after the window ends.
[[nodiscard]] OnlineResult run_online(const core::Pack& pack,
                                      const checkpoint::Model& resilience,
                                      int processors,
                                      const std::vector<double>& release_times,
                                      fault::Generator& faults);

/// run_online over a caller-provided expected-time model and evaluator
/// (both built over the same pack and resilience): the campaign runner
/// shares one warm coefficient table across every scheduler of a cell.
/// Cached entries are pure in (task, j, alpha), so results are identical
/// to the self-contained overload.
[[nodiscard]] OnlineResult run_online(const core::Pack& pack,
                                      const checkpoint::Model& resilience,
                                      int processors,
                                      const std::vector<double>& release_times,
                                      fault::Generator& faults,
                                      const core::ExpectedTimeModel& model,
                                      core::TrEvaluator& evaluator);

/// make_release_times over a shared evaluator (same sharing rationale).
[[nodiscard]] std::vector<double> make_release_times(
    const ArrivalSpec& spec, const core::Pack& pack,
    const checkpoint::Model& resilience, int processors, Rng& rng,
    const core::ExpectedTimeModel& model, core::TrEvaluator& evaluator);

}  // namespace coredis::extensions
