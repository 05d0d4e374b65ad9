#include "extensions/online.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/expected_time.hpp"
#include "extensions/batch.hpp"
#include "redistrib/cost.hpp"
#include "util/contracts.hpp"
#include "util/heap_ops.hpp"

namespace coredis::extensions {

namespace {

/// Mean processor-seconds demanded per job: best-useful allocation
/// (extensions/batch.hpp — the rigid submissions use the same rule, so
/// calibration and requests agree) times the fault-free time on it,
/// averaged over the pack.
double mean_job_area(const core::ExpectedTimeModel& model,
                     core::TrEvaluator& evaluator, int p) {
  const int n = model.pack().size();
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    const int j = best_useful_allocation(evaluator, i, p);
    total += static_cast<double>(j) * model.fault_free_time(i, j);
  }
  return total / static_cast<double>(n);
}

std::vector<double> load_trace(const std::string& path, int n) {
  std::ifstream file(path);
  if (!file)
    throw std::runtime_error("cannot open arrival trace: " + path);
  std::vector<double> times;
  double value = 0.0;
  while (file >> value) {
    if (value < 0.0)
      throw std::runtime_error("arrival trace has a negative release date: " +
                               path);
    times.push_back(value);
  }
  if (static_cast<int>(times.size()) < n)
    throw std::runtime_error(
        "arrival trace holds " + std::to_string(times.size()) +
        " release dates but the pack needs " + std::to_string(n) + ": " + path);
  // Sort first, then keep the n *earliest* dates — truncating a trace in
  // file order would silently pick an arbitrary subset when the file is
  // not already sorted.
  std::sort(times.begin(), times.end());
  times.resize(static_cast<std::size_t>(n));
  return times;
}

}  // namespace

std::string to_string(ArrivalLaw law) {
  switch (law) {
    case ArrivalLaw::None: return "none";
    case ArrivalLaw::Poisson: return "poisson";
    case ArrivalLaw::Bulk: return "bulk";
    case ArrivalLaw::Trace: return "trace";
  }
  return "?";
}

std::vector<double> make_release_times(const ArrivalSpec& spec,
                                       const core::Pack& pack,
                                       const checkpoint::Model& resilience,
                                       int processors, Rng& rng) {
  const core::ExpectedTimeModel model(pack, resilience);
  core::TrEvaluator evaluator(model, processors - processors % 2);
  return make_release_times(spec, pack, resilience, processors, rng, model,
                            evaluator);
}

std::vector<double> make_release_times(const ArrivalSpec& spec,
                                       const core::Pack& pack,
                                       const checkpoint::Model& resilience,
                                       int processors, Rng& rng,
                                       const core::ExpectedTimeModel& model,
                                       core::TrEvaluator& evaluator) {
  COREDIS_EXPECTS(processors >= 2);
  COREDIS_EXPECTS(spec.load_factor > 0.0);
  COREDIS_EXPECTS(&model.pack() == &pack);
  COREDIS_EXPECTS(&model.resilience() == &resilience);
  const int n = pack.size();
  std::vector<double> releases(static_cast<std::size_t>(n), 0.0);
  if (spec.law == ArrivalLaw::None || n == 0) return releases;
  if (spec.law == ArrivalLaw::Trace) {
    releases = load_trace(spec.trace_path, n);
    for (double& r : releases) r /= spec.load_factor;
    return releases;
  }

  // Calibrate the arrival rate so the offered load is spec.load_factor:
  // one job demands a_bar processor-seconds on average, so rho * p
  // processor-seconds per second means one arrival every
  // a_bar / (rho * p) seconds.
  const double area = mean_job_area(model, evaluator, processors);
  const double mean_gap =
      area / (spec.load_factor * static_cast<double>(processors));

  if (spec.law == ArrivalLaw::Poisson) {
    double t = 0.0;
    for (int i = 0; i < n; ++i) {
      t += rng.exponential(1.0 / mean_gap);
      releases[static_cast<std::size_t>(i)] = t;
    }
    return releases;
  }

  // Bulk: jobs arrive in `bulk_phases` evenly spaced waves of n / phases
  // jobs (index order), one wave per mean service interval of its jobs.
  COREDIS_EXPECTS(spec.bulk_phases >= 1);
  const int phases = std::min(spec.bulk_phases, n);
  const double spacing =
      mean_gap * (static_cast<double>(n) / static_cast<double>(phases));
  for (int i = 0; i < n; ++i) {
    const int phase = i * phases / n;
    releases[static_cast<std::size_t>(i)] =
        static_cast<double>(phase) * spacing;
  }
  return releases;
}

core::RunResult to_run_result(OnlineResult&& result) {
  core::RunResult out;
  out.makespan = result.makespan;
  out.faults_effective = result.faults_effective;
  out.redistributions = result.redistributions;
  out.redistribution_cost = result.redistribution_cost;
  out.completion_times = std::move(result.completion_times);
  out.final_allocation = std::move(result.final_allocation);
  return out;
}

void regrow(core::TrEvaluator& evaluator, const std::vector<int>& live,
            const std::vector<double>& alpha, int available,
            const std::vector<int>& caps, std::vector<int>& target,
            std::vector<std::pair<double, int>>& heap) {
  const std::size_t count = live.size();
  COREDIS_EXPECTS(alpha.size() == count && caps.size() == count);
  COREDIS_EXPECTS(available >= 0);
  target.assign(count, 2);
  heap.clear();
  for (std::size_t k = 0; k < count; ++k)
    heap.emplace_back(evaluator(live[k], 2, alpha[k]), static_cast<int>(k));
  std::make_heap(heap.begin(), heap.end());
  // Grant in bulk while the head provably keeps the lead: the rescored
  // entry beats both heap children, so re-pushing and re-popping it
  // would be a no-op.
  bool stuck = false;  // the longest job cannot improve: stop granting
  while (!stuck && available >= 2 && !heap.empty()) {
    const auto k = static_cast<std::size_t>(heap.front().second);
    const core::TrEvaluator::Column tr = evaluator.column(live[k], alpha[k]);
    bool granted = false;
    while (available >= 2) {
      const int current = target[k];
      if (current + 2 > caps[k]) {
        // Capped out: the next-longest job gets its turn.
        std::pop_heap(heap.begin(), heap.end());
        heap.pop_back();
        break;
      }
      const int pmax =
          std::min(current + available - available % 2, caps[k]);
      if (!tr.improvable(current, pmax)) {
        stuck = !granted;
        break;
      }
      target[k] = current + 2;
      available -= 2;
      granted = true;
      const std::pair<double, int> rescored{tr(current + 2),
                                            static_cast<int>(k)};
      if (util::stays_top(heap, rescored)) {
        heap.front() = rescored;  // keeps the lead: grant again
      } else {
        util::heap_replace_top(heap, rescored);
        break;  // another job took the lead; re-peek
      }
    }
  }
}

OnlineSim::OnlineSim(const core::ExpectedTimeModel& model,
                     core::TrEvaluator& evaluator, int processors,
                     const std::vector<double>& release_times)
    : model_(model),
      evaluator_(evaluator),
      p_(processors - processors % 2),
      n_(model.pack().size()),
      release_times_(release_times),
      jobs_(static_cast<std::size_t>(n_)) {
  COREDIS_EXPECTS(processors >= 2);
  COREDIS_EXPECTS(static_cast<int>(release_times.size()) == n_);
  result_.start_times.assign(static_cast<std::size_t>(n_), 0.0);
  result_.completion_times.assign(static_cast<std::size_t>(n_), 0.0);
  result_.final_allocation.assign(static_cast<std::size_t>(n_), 0);
}

double OnlineSim::tentative_alpha(int i, double t) const {
  const Job& job = jobs_[static_cast<std::size_t>(i)];
  if (job.sigma == 0 || t <= job.baseline) return job.alpha;
  const double tau = model_.period(i, job.sigma);
  const double cost = model_.checkpoint_cost(i, job.sigma);
  const double elapsed = t - job.baseline;
  const double completed =
      std::isfinite(tau) ? std::floor(elapsed / tau) : 0.0;
  const double done_fraction =
      (elapsed - completed * cost) / model_.fault_free_time(i, job.sigma);
  return std::clamp(job.alpha - done_fraction, 0.0, 1.0);
}

double OnlineSim::work_done(double t) const {
  double done = 0.0;
  for (int i = 0; i < n_; ++i) {
    const Job& job = jobs_[static_cast<std::size_t>(i)];
    if (job.done)
      done += 1.0;
    else if (job.admitted)
      done += 1.0 - tentative_alpha(i, t);
  }
  return done;
}

int OnlineSim::admit_next(double t) {
  const int i = waiting_[waiting_head_++];
  Job& job = jobs_[static_cast<std::size_t>(i)];
  job.admitted = true;
  job.alpha = 1.0;
  job.sigma = 0;     // assigned by place_fresh
  job.baseline = t;  // keeps tentative_alpha at 1.0 until placement
  job.busy_mark = t;
  result_.start_times[static_cast<std::size_t>(i)] = t;
  return i;
}

void OnlineSim::place_fresh(int i, int target, double t) {
  Job& job = jobs_[static_cast<std::size_t>(i)];
  job.sigma = target;
  job.baseline = t;
  job.busy_mark = t;
  job.proj_end = t + model_.simulated_duration(i, target, 1.0);
}

void OnlineSim::commit_resize(int i, int target, double alpha_now,
                              double t) {
  Job& job = jobs_[static_cast<std::size_t>(i)];
  const double rc = redistrib::cost(job.sigma, target,
                                    model_.pack().task(i).data_size);
  result_.busy_processor_seconds +=
      static_cast<double>(job.sigma) * (t - job.busy_mark);
  job.busy_mark = t;
  job.alpha = alpha_now;
  job.sigma = target;
  job.baseline = t + rc + model_.checkpoint_cost(i, target);
  job.proj_end =
      job.baseline + model_.simulated_duration(i, target, job.alpha);
  ++result_.redistributions;
  result_.redistribution_cost += rc;
}

void OnlineSim::repack(double t) {
  live_.clear();
  int reserved = 0;
  for (int i = 0; i < n_; ++i) {
    const Job& job = jobs_[static_cast<std::size_t>(i)];
    if (!job.admitted || job.done) continue;
    // Jobs inside a blackout window (mid-redistribution or recovering)
    // keep their allocation; everyone else is malleable.
    if (t >= job.baseline)
      live_.push_back(i);
    else
      reserved += job.sigma;
  }
  while (!waiting_empty() &&
         2 * (static_cast<int>(live_.size()) + 1) <= p_ - reserved)
    live_.push_back(admit_next(t));
  if (live_.empty()) return;
  std::sort(live_.begin(), live_.end());

  const std::size_t count = live_.size();
  alpha_now_.resize(count);
  caps_.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    const int i = live_[k];
    alpha_now_[k] = tentative_alpha(i, t);
    caps_[k] = cap(i, alpha_now_[k], t);
    // The regrow re-derives almost every allocation unchanged: prefill
    // the fresh-alpha column to the current depth in one probe_many
    // batch — the exact Eq. 4 values the grant scans will read.
    (void)evaluator_.column(i, alpha_now_[k])(
        std::max(jobs_[static_cast<std::size_t>(i)].sigma, 2));
  }
  const int available = p_ - reserved - 2 * static_cast<int>(count);
  COREDIS_ASSERT(available >= 0);
  regrow(evaluator_, live_, alpha_now_, available, caps_, target_, heap_);

  for (std::size_t k = 0; k < count; ++k) {
    const int i = live_[k];
    const int old_sigma = jobs_[static_cast<std::size_t>(i)].sigma;
    if (target_[k] == old_sigma) continue;  // targets are >= 2: never fresh
    if (old_sigma == 0)
      place_fresh(i, target_[k], t);
    else
      commit_resize(i, target_[k], alpha_now_[k], t);
    committed(i, old_sigma, alpha_now_[k], t);
  }
}

OnlineResult OnlineSim::run(fault::Generator& faults) {
  const double infinity = std::numeric_limits<double>::infinity();
  // Arrival order: release date, ties by job index.
  std::vector<int> arrivals(static_cast<std::size_t>(n_));
  std::iota(arrivals.begin(), arrivals.end(), 0);
  std::stable_sort(arrivals.begin(), arrivals.end(), [&](int a, int b) {
    return release_times_[static_cast<std::size_t>(a)] <
           release_times_[static_cast<std::size_t>(b)];
  });
  std::size_t next_arrival = 0;

  std::optional<fault::Fault> next_fault = faults.next();
  int remaining = n_;
  double now = 0.0;
  while (remaining > 0) {
    const double t_release =
        next_arrival < arrivals.size()
            ? release_times_[static_cast<std::size_t>(arrivals[next_arrival])]
            : infinity;
    double end_time = infinity;
    int ending = -1;
    for (int i = 0; i < n_; ++i) {
      const Job& job = jobs_[static_cast<std::size_t>(i)];
      if (job.admitted && !job.done && job.proj_end < end_time) {
        end_time = job.proj_end;
        ending = i;
      }
    }
    // While jobs queue, the end of a blackout window is an event too:
    // the expiring reservation may be exactly what admission waits for,
    // and the next completion can be arbitrarily far away.
    double t_unblock = infinity;
    if (!waiting_empty()) {
      for (const Job& job : jobs_) {
        if (job.admitted && !job.done && job.baseline > now)
          t_unblock = std::min(t_unblock, job.baseline);
      }
    }
    const double t_wake = std::min(t_release, t_unblock);
    const double t_next = std::min(t_wake, end_time);
    COREDIS_ASSERT(std::isfinite(t_next));

    // ---- Fault event ---------------------------------------------------
    if (next_fault && next_fault->time < t_next) {
      const fault::Fault fault = *next_fault;
      next_fault = faults.next();
      now = fault.time;
      // Attribute the fault: processor indices are laid out over the
      // admitted jobs in index order, idle slots last (the merged stream
      // draws processors uniformly, so slot identity is equivalent).
      int cursor = 0;
      int owner = -1;
      for (int i = 0; i < n_; ++i) {
        const Job& job = jobs_[static_cast<std::size_t>(i)];
        if (!job.admitted || job.done) continue;
        if (fault.processor < cursor + job.sigma) {
          owner = i;
          break;
        }
        cursor += job.sigma;
      }
      if (owner < 0) continue;  // idle slot
      Job& job = jobs_[static_cast<std::size_t>(owner)];
      if (fault.time <= job.baseline) continue;  // blackout window
      ++result_.faults_effective;
      // Rollback to the last checkpoint (the engine's arithmetic).
      const double tau = model_.period(owner, job.sigma);
      const double cost = model_.checkpoint_cost(owner, job.sigma);
      const double periods =
          std::isfinite(tau) ? std::floor((fault.time - job.baseline) / tau)
                             : 0.0;
      job.alpha = std::clamp(
          job.alpha - periods * (tau - cost) /
                          model_.fault_free_time(owner, job.sigma),
          0.0, 1.0);
      job.baseline = fault.time + model_.resilience().downtime() +
                     model_.recovery_time(owner, job.sigma);
      job.proj_end = job.baseline +
                     model_.simulated_duration(owner, job.sigma, job.alpha);
      on_fault(owner);
      continue;
    }

    // ---- Release / blackout-exit event ---------------------------------
    // Releases win a tie with a completion (the admission pass sees the
    // completing job as still running, harmlessly); a blackout exit tying
    // a completion defers to it — the completion reschedules anyway.
    if (t_wake < end_time || t_release <= end_time) {
      now = t_wake;
      while (next_arrival < arrivals.size() &&
             release_times_[static_cast<std::size_t>(
                 arrivals[next_arrival])] <= t_wake) {
        waiting_.push_back(arrivals[next_arrival]);
        ++next_arrival;
      }
      reschedule(t_wake);
      continue;
    }

    // ---- Completion event ----------------------------------------------
    now = end_time;
    Job& job = jobs_[static_cast<std::size_t>(ending)];
    job.done = true;
    result_.completion_times[static_cast<std::size_t>(ending)] = end_time;
    result_.final_allocation[static_cast<std::size_t>(ending)] = job.sigma;
    result_.busy_processor_seconds +=
        static_cast<double>(job.sigma) * (end_time - job.busy_mark);
    result_.makespan = std::max(result_.makespan, end_time);
    --remaining;
    if (remaining > 0) reschedule(end_time);
  }

  double wait = 0.0;
  for (int i = 0; i < n_; ++i)
    wait += result_.start_times[static_cast<std::size_t>(i)] -
            release_times_[static_cast<std::size_t>(i)];
  result_.mean_queue_wait = n_ > 0 ? wait / static_cast<double>(n_) : 0.0;
  return std::move(result_);
}

OnlineResult run_online(const core::Pack& pack,
                        const checkpoint::Model& resilience, int processors,
                        const std::vector<double>& release_times,
                        fault::Generator& faults) {
  const core::ExpectedTimeModel model(pack, resilience);
  core::TrEvaluator evaluator(model, processors - processors % 2);
  return run_online(pack, resilience, processors, release_times, faults,
                    model, evaluator);
}

OnlineResult run_online(const core::Pack& pack,
                        const checkpoint::Model& resilience, int processors,
                        const std::vector<double>& release_times,
                        fault::Generator& faults,
                        const core::ExpectedTimeModel& model,
                        core::TrEvaluator& evaluator) {
  COREDIS_EXPECTS(&model.pack() == &pack);
  COREDIS_EXPECTS(&model.resilience() == &resilience);
  return OnlineSim(model, evaluator, processors, release_times).run(faults);
}

}  // namespace coredis::extensions
