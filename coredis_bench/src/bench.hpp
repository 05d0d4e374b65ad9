#pragma once

/// \file bench.hpp
/// Shared machinery of the coredis_bench program: arguments, the result
/// report, statistics, child processes and the in-memory span tracer.
///
/// The benchmark measures the coredis programs from outside. Untraced runs
/// time the user paths end to end (the coredis_campaign coordinator,
/// the coredis_serve daemon over its socket); traced runs record spans
/// around calls into each library layer from this directory's code only
/// and read no in-program numbers except core::RunResult::profile.

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace coredis_bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

/// Everything one run prints: metrics for the final JSON line, context
/// notes for the line before it, and the correctness tally.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A context value printed beside the result (not a gated metric).
  void note(const std::string& key, double value);
  void note(const std::string& key, const std::string& value);

  /// Count one checked operation; `ok == false` records a failure and
  /// prints `what` to stderr.
  void check(bool ok, const std::string& what);
  [[nodiscard]] long long attempted() const noexcept { return attempted_; }
  [[nodiscard]] long long failed() const noexcept { return failed_; }

  /// The context line and the final result line, on stdout.
  void print(const Args& args) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;  // key, JSON value
  long long attempted_ = 0;
  long long failed_ = 0;
};

// --- statistics -----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double sum(const std::vector<double>& values);

// --- files ----------------------------------------------------------------

[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);
/// A fresh scratch directory for this run under the build tree
/// (.bench_build/runs/<pid>), removed by the destructor.
class ScratchDir {
 public:
  ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir();
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::string file(const std::string& name) const;

 private:
  std::string path_;
};

/// The lines of `text` (no terminators), empty lines dropped.
[[nodiscard]] std::vector<std::string> split_lines(const std::string& text);

// --- child processes ------------------------------------------------------

/// One spawned program. The destructor kills (SIGKILL) and reaps a child
/// that is still running, so no error path leaves a process behind.
class Child {
 public:
  /// Spawn argv[0] with stdout and stderr appended to `log_path`; the
  /// child gets SIGTERM should this process die first.
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  struct Exit {
    int status = -1;            ///< raw waitpid status
    double cpu_seconds = 0.0;   ///< user + sys of the child and its reaped tree
    double max_rss_mb = 0.0;    ///< largest RSS in the child's reaped tree
    [[nodiscard]] bool ok() const;
  };

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// Block until the child exits; rusage covers the descendants it reaped.
  Exit wait();
  /// SIGTERM, then wait.
  Exit terminate();

 private:
  pid_t pid_ = -1;
};

/// user + sys CPU seconds of a live process (/proc/<pid>/stat).
[[nodiscard]] double process_cpu_seconds(pid_t pid);
/// Peak resident set (VmHWM) of a live process, in MB.
[[nodiscard]] double process_peak_rss_mb(pid_t pid);

// --- tracing --------------------------------------------------------------

/// In-memory span recorder. A span has a name, a parent and a duration;
/// measured spans are bracketed by begin/end on the steady clock, and
/// `add` records a sub-interval whose duration the program itself
/// reported (core::RunResult::profile). Self time is a span's duration
/// minus its children's.
class Tracer {
 public:
  static constexpr int kNoParent = -1;

  int begin(const std::string& name, int parent);
  void end(int id);
  int add(const std::string& name, int parent, double seconds);

  [[nodiscard]] double duration(int id) const;
  /// Self time summed per span name, the root excluded.
  [[nodiscard]] std::map<std::string, double> self_by_name(int root) const;

 private:
  struct Span {
    std::string name;
    int parent = kNoParent;
    Clock::time_point start;
    double seconds = 0.0;
    double child_seconds = 0.0;
  };
  std::vector<Span> spans_;
};

/// RAII span: begin on construction, end on destruction.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name, int parent)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { tracer_.end(id_); }
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// --- workloads ------------------------------------------------------------

/// nproc as the benchmark sees it (online CPUs, at least 1).
[[nodiscard]] std::size_t nproc();

void run_campaign_workload(const Args& args, Report& report);
void run_serve_workload(const Args& args, Report& report);

}  // namespace coredis_bench
