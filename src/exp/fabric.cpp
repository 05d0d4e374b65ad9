#include "exp/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#define COREDIS_FABRIC_FORK 1
#endif

#include "exp/cost_model.hpp"
#include "exp/storage.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace coredis::exp {

namespace {

/// Worker k's run options: the machine thread budget split fairly
/// (an explicit thread count applies to every worker as given).
GridRunOptions worker_options(const GridRunOptions& base, std::size_t workers,
                              std::size_t k, bool resume) {
  GridRunOptions options = base;
  options.resume = resume;
  if (options.threads == 0) options.threads = thread_budget_share(workers, k);
  return options;
}

/// The blocks left to compute: W equal contiguous ranges (static) or the
/// cost-balanced plan, each split around the cells `held` already covers.
std::vector<DealBlock> plan_blocks(const CostModel& model,
                                   const CellQueue& queue, std::size_t workers,
                                   bool static_blocks,
                                   const std::vector<bool>& held) {
  std::vector<DealBlock> planned;
  if (static_blocks) {
    for (std::size_t k = 0; k < workers; ++k) {
      const auto [begin, end] = shard_range(queue.size(), {k, workers});
      if (begin < end) planned.push_back({begin, end});
    }
  } else {
    planned = plan_deal_blocks(model, queue, workers);
  }
  std::vector<DealBlock> blocks;
  for (const DealBlock& block : planned)
    for (std::size_t k = block.begin; k < block.end;) {
      if (held[k]) {
        ++k;
        continue;
      }
      DealBlock open{k, k};
      while (open.end < block.end && !held[open.end]) ++open.end;
      blocks.push_back(open);
      k = open.end;
    }
  return blocks;
}

#if defined(COREDIS_FABRIC_FORK)
/// Set by the coordinator's SIGINT/SIGTERM handler (installed without
/// SA_RESTART, so a blocked poll returns EINTR and the loop sees it).
volatile std::sig_atomic_t g_coordinator_signal = 0;

extern "C" void coredis_fabric_signal_handler(int sig) {
  g_coordinator_signal = sig;
}

std::runtime_error errno_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

/// Remove a dead worker's scratch files. The spill scratch
/// (exp/storage.cpp) unlinks its name right after opening it, so a
/// worker that leaves via _Exit or a signal strands nothing — except when
/// it dies in the instant between the two. The coordinator sweeps the
/// pid-tagged names (`coredis_<tag>_<pid>_<seq>.bin`) from the spill
/// directory to cover that window. Best-effort: a failed removal must not
/// mask the run's own outcome.
void remove_worker_scratch(const std::string& dir, pid_t pid) {
  namespace fs = std::filesystem;
  std::error_code ignored;
  const fs::path parent =
      dir.empty() ? fs::temp_directory_path(ignored) : fs::path(dir);
  // Appends instead of operator+ chains: GCC 12 misfires -Wrestrict on
  // the latter (GCC PR105329).
  std::string pid_tag = "_";
  pid_tag += std::to_string(pid);
  pid_tag += '_';
  fs::directory_iterator it(parent, ignored), end;
  for (; !ignored && it != end; it.increment(ignored)) {
    const std::string name = it->path().filename().string();
    if (name.rfind("coredis_", 0) == 0 &&
        name.find(pid_tag) != std::string::npos && name.ends_with(".bin"))
      fs::remove(it->path(), ignored);
  }
}

struct Proc {
  pid_t pid = -1;
  int command_fd = -1;
  int attempts = 0;
  bool busy = false;
  DealBlock block{};
};

/// The forked workers, their pipes and the coordinator's signal
/// dispositions. The destructor is the one way out of every
/// coordination: it stops (SIGTERM), reaps and sweeps whoever is still
/// alive, closes every pipe and restores the dispositions — so a throw
/// anywhere in the deal loop cleans up exactly like a caught signal.
class Fleet {
 public:
  Fleet(std::size_t workers, std::string storage_dir)
      : procs(workers), storage_dir_(std::move(storage_dir)) {
    if (::pipe(ack) != 0)
      throw errno_error("coordinator: cannot create the ack pipe");
    // A blocking ack pipe would hang the drain forever.
    if (::fcntl(ack[0], F_SETFL, O_NONBLOCK) != 0) {
      const std::runtime_error error =
          errno_error("coordinator: cannot make the ack pipe non-blocking");
      close_fd(ack[0]);
      close_fd(ack[1]);
      throw error;
    }
    // SIGPIPE ignored: writing "deal" to a worker that just died must
    // surface as an error return, not kill the coordinator.
    g_coordinator_signal = 0;
    struct sigaction action {};
    action.sa_handler = coredis_fabric_signal_handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
    old_pipe_ = std::signal(SIGPIPE, SIG_IGN);
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  ~Fleet() {
    stop(SIGTERM);
    close_fd(ack[0]);
    close_fd(ack[1]);
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
    std::signal(SIGPIPE, old_pipe_);
  }

  /// Fork worker k running `body` over its link; the child exits with
  /// the body's status.
  void spawn(std::size_t k, const GridRunOptions& options,
             const std::function<int(WorkerLink&)>& body) {
    int command[2] = {-1, -1};
    if (::pipe(command) != 0)
      throw errno_error("coordinator: cannot create a command pipe");
    const int attempt = procs[k].attempts + 1;
    std::cout.flush();
    std::cerr.flush();
    // SIGINT/SIGTERM stay blocked across fork() until the child has taken
    // the default dispositions back: a stop forwarded in between must not
    // be swallowed by the inherited flag-setting handler.
    sigset_t stops;
    sigset_t previous;
    sigemptyset(&stops);
    sigaddset(&stops, SIGINT);
    sigaddset(&stops, SIGTERM);
    ::pthread_sigmask(SIG_BLOCK, &stops, &previous);
    const pid_t pid = ::fork();
    if (pid == 0) {
      std::signal(SIGINT, SIG_DFL);
      std::signal(SIGTERM, SIG_DFL);
      std::signal(SIGPIPE, SIG_DFL);
      ::pthread_sigmask(SIG_SETMASK, &previous, nullptr);
      ::close(command[1]);
      ::close(ack[0]);
      // Inherited write ends of the *other* workers' command pipes
      // would keep their loops alive past the coordinator; drop them.
      for (const Proc& other : procs)
        if (other.command_fd >= 0) ::close(other.command_fd);
      WorkerLink link{k, procs.size(), attempt, options, command[0], ack[1]};
      int status = 1;
      try {
        status = body(link);
      } catch (const std::exception& error) {
        std::cerr << "worker " << k << "/" << procs.size()
                  << ": error: " << error.what() << '\n';
      }
      std::_Exit(status);  // no cleanup: the coordinator owns the state
    }
    ::pthread_sigmask(SIG_SETMASK, &previous, nullptr);
    close_fd(command[0]);
    if (pid < 0) {
      close_fd(command[1]);
      throw errno_error("coordinator: cannot fork worker " +
                        std::to_string(k));
    }
    procs[k].pid = pid;
    procs[k].command_fd = command[1];
    procs[k].busy = false;
    procs[k].attempts = attempt;
  }

  /// Book worker k's death: close its pipe and sweep its scratch.
  void reaped(std::size_t k) {
    remove_worker_scratch(storage_dir_, procs[k].pid);
    procs[k].pid = -1;
    close_fd(procs[k].command_fd);
  }

  /// Forward `sig` (0: none) to every live worker, then reap and sweep
  /// each.
  void stop(int sig) {
    for (const Proc& proc : procs)
      if (proc.pid > 0) ::kill(proc.pid, sig);
    for (std::size_t k = 0; k < procs.size(); ++k) wait_for(k);
  }

  [[nodiscard]] std::size_t live() const {
    return static_cast<std::size_t>(
        std::count_if(procs.begin(), procs.end(),
                      [](const Proc& proc) { return proc.pid > 0; }));
  }

  std::vector<Proc> procs;
  int ack[2] = {-1, -1};

 private:
  /// Reap live worker k (blocking).
  void wait_for(std::size_t k) {
    if (procs[k].pid <= 0) return;
    while (::waitpid(procs[k].pid, nullptr, 0) < 0 && errno == EINTR) {
    }
    reaped(k);
  }

  std::string storage_dir_;
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
  void (*old_pipe_)(int) = SIG_DFL;
};
#endif

}  // namespace

bool WorkerLink::next(DealBlock& block) {
  std::string command;
#if defined(COREDIS_FABRIC_FORK)
  // Byte by byte: a few commands per block, and nothing is read past
  // the newline, so no buffer outlives the call.
  for (char c = 0; c != '\n';) {
    const ssize_t n = ::read(command_fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // coordinator gone: no one left to ack to
    if (c != '\n') command += c;
  }
#endif
  done = command == "done";
  return std::sscanf(command.c_str(), "deal %zu %zu", &block.begin,
                     &block.end) == 2 &&
         block.begin <= block.end;
}

bool WorkerLink::send(const std::string& line) const {
#if defined(COREDIS_FABRIC_FORK)
  return ::write(ack_fd, line.data(), line.size()) ==
         static_cast<ssize_t>(line.size());
#else
  (void)line;
  return false;
#endif
}

int serve_dealt_blocks(const std::vector<Scenario>& points,
                       const std::vector<ConfigSpec>& configs,
                       WorkerLink& link) {
  DealWorker worker(points, configs, link.index, link.workers, link.options);
  DealBlock block;
  while (link.next(block)) {
    const auto start = std::chrono::steady_clock::now();
    worker.run_block(block.begin, block.end);
    const std::chrono::duration<double> seconds =
        std::chrono::steady_clock::now() - start;
    char ack[128];
    std::snprintf(ack, sizeof ack, "%zu %zu %zu %.6f\n", link.index,
                  block.begin, block.end, seconds.count());
    if (!link.send(ack)) return 1;
  }
  return link.done ? 0 : 1;
}

FabricReport run_fabric(const Campaign& campaign, const GridRunOptions& base,
                        const FabricOptions& fabric) {
  const std::size_t workers = fabric.workers;
  const std::string& out = base.jsonl_path;
  COREDIS_EXPECTS(workers > 0 && !out.empty());
  const std::vector<Scenario> points = campaign_points(campaign);
  std::vector<std::size_t> runs;
  for (const Scenario& point : points)
    runs.push_back(static_cast<std::size_t>(point.runs));
  const CellQueue queue(runs);
  CostModel model(points, campaign.configs);

  FabricReport report;
  const std::vector<bool> held =
      base.resume ? shard_coverage(points, campaign.configs, workers, out)
                  : std::vector<bool>(queue.size(), false);
  report.cells_resumed =
      static_cast<std::size_t>(std::count(held.begin(), held.end(), true));

  // The pending blocks keep a per-point cell histogram so re-ranking
  // under the refined model costs O(points) per block, not O(cells).
  struct Pending {
    DealBlock block;
    std::vector<std::size_t> counts;
  };
  std::vector<Pending> pending;
  const auto requeue = [&](const DealBlock& block) {
    std::vector<std::size_t> counts(points.size(), 0);
    for (std::size_t k = block.begin; k < block.end; ++k)
      ++counts[queue.at(k).point];
    pending.push_back({block, std::move(counts)});
  };
  for (const DealBlock& block : plan_blocks(model, queue, workers,
                                            fabric.static_blocks, held)) {
    requeue(block);
    report.cells_dealt += block.end - block.begin;
  }
  report.blocks = pending.size();
  std::cerr << "dealing " << report.blocks << " blocks ("
            << report.cells_dealt << " of " << queue.size()
            << " cells) over " << workers << " workers -> " << out << '\n';

#if defined(COREDIS_FABRIC_FORK)
  {
    const auto take_longest = [&] {
      std::size_t best = 0;
      double best_cost = -1.0;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        double cost = 0.0;
        for (std::size_t p = 0; p < pending[i].counts.size(); ++p)
          if (pending[i].counts[p] != 0)
            cost += model.predict(p) *
                    static_cast<double>(pending[i].counts[p]);
        if (cost > best_cost) {
          best_cost = cost;
          best = i;
        }
      }
      const DealBlock block = pending[best].block;
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
      return block;
    };

    const WorkerBody body =
        fabric.worker_body ? fabric.worker_body : serve_dealt_blocks;
    Fleet fleet(workers, base.storage_dir);
    std::vector<Proc>& procs = fleet.procs;
    const auto spawn = [&](std::size_t k, bool resume) {
      fleet.spawn(k, worker_options(base, workers, k, resume),
                  [&](WorkerLink& link) {
                    return body(points, campaign.configs, link);
                  });
    };
    for (std::size_t k = 0; k < workers; ++k) spawn(k, base.resume);

    const int kMaxAttempts = 3;
    std::string acks;
    const auto any_busy = [&] {
      return std::any_of(procs.begin(), procs.end(),
                         [](const Proc& proc) { return proc.busy; });
    };
    const auto drain_acks = [&] {
      char buf[512];
      for (;;) {
        const ssize_t n = ::read(fleet.ack[0], buf, sizeof buf);
        if (n > 0) {
          acks.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        break;  // EAGAIN: drained
      }
      for (;;) {
        const std::size_t newline = acks.find('\n');
        if (newline == std::string::npos) break;
        const std::string line = acks.substr(0, newline);
        acks.erase(0, newline + 1);
        std::size_t k = 0;
        std::size_t begin = 0;
        std::size_t end = 0;
        double seconds = 0.0;
        const bool valid =
            std::sscanf(line.c_str(), "%zu %zu %zu %lf", &k, &begin, &end,
                        &seconds) == 4 &&
            k < workers && procs[k].busy && procs[k].block.begin == begin &&
            procs[k].block.end == end;
        if (!valid)
          throw std::runtime_error("coordinator: malformed ack '" + line +
                                   "'; deal bookkeeping is corrupt");
        procs[k].busy = false;
        // The block's one timing refines every point it touched, so the
        // next take_longest re-ranks the remaining blocks.
        model.observe_span(queue, begin, end, seconds);
      }
    };
    const auto deal_to_idle = [&] {
      for (std::size_t k = 0; k < workers && !pending.empty(); ++k) {
        Proc& proc = procs[k];
        if (proc.pid <= 0 || proc.busy) continue;
        const DealBlock block = take_longest();
        char command[96];
        const int length = std::snprintf(command, sizeof command,
                                         "deal %zu %zu\n", block.begin,
                                         block.end);
        if (::write(proc.command_fd, command,
                    static_cast<std::size_t>(length)) != length) {
          requeue(block);  // the worker is dying; the reap handles it
          continue;
        }
        proc.busy = true;
        proc.block = block;
      }
    };

    while ((!pending.empty() || any_busy()) && g_coordinator_signal == 0) {
      deal_to_idle();
      struct pollfd fd {};
      fd.fd = fleet.ack[0];
      fd.events = POLLIN;
      if (::poll(&fd, 1, 200) < 0 && errno != EINTR)
        throw errno_error("coordinator: poll failed");
      drain_acks();
      // Reap only our own workers: an in-process caller's other children
      // are none of the coordinator's business.
      for (std::size_t k = 0; k < workers; ++k) {
        if (procs[k].pid <= 0 ||
            ::waitpid(procs[k].pid, nullptr, WNOHANG) <= 0)
          continue;
        fleet.reaped(k);
        // An ack flushed just before the death must win over a re-deal:
        // the acked block's records are on disk.
        drain_acks();
        if (procs[k].busy) {
          std::cerr << "worker " << k << "/" << workers
                    << " lost mid-block (cells " << procs[k].block.begin
                    << ".." << procs[k].block.end << "); re-dealing it\n";
          requeue(procs[k].block);
          procs[k].busy = false;
          ++report.redeals;
        }
        // A dealt worker only exits after "done"; any exit here is a loss.
        if (procs[k].attempts < kMaxAttempts) {
          std::cerr << "worker " << k << "/" << workers
                    << " lost; respawning with resume\n";
          spawn(k, true);
          ++report.respawns;
        } else {
          std::cerr << "worker " << k << "/" << workers << " failed "
                    << kMaxAttempts
                    << " times; continuing with the remaining workers\n";
        }
      }
      if (fleet.live() == 0 && (!pending.empty() || any_busy()))
        throw std::runtime_error(
            "distributed campaign failed: every worker kept dying; fix the "
            "cause and rerun with --resume to keep the completed cells");
    }

    if (g_coordinator_signal != 0) {
      report.signal = static_cast<int>(g_coordinator_signal);
      std::cerr << "coordinator: caught signal " << report.signal
                << "; stopping " << fleet.live() << " workers\n";
      fleet.stop(report.signal);
      std::cerr << "coordinator: interrupted; shard files retained — rerun "
                   "with --resume to continue\n";
      return report;
    }
    // Retire the fleet: every block is acked, so a worker that fails to
    // exit cleanly after "done" cannot lose data — the merge validates
    // every record anyway.
    for (const Proc& proc : procs)
      if (proc.pid > 0) (void)!::write(proc.command_fd, "done\n", 5);
    fleet.stop(0);
  }
#else
  // No fork(): worker k's DealWorker runs every W-th block in-process.
  for (std::size_t k = 0; k < workers; ++k) {
    DealWorker worker(points, campaign.configs, k, workers,
                      worker_options(base, workers, k, base.resume));
    for (std::size_t i = k; i < pending.size(); i += workers)
      worker.run_block(pending[i].block.begin, pending[i].block.end);
  }
#endif

  merge_deal_shards(points, campaign.configs, workers, out);
  if (!fabric.keep_shards)
    for (std::size_t k = 0; k < workers; ++k) {
      std::error_code ignored;
      std::filesystem::remove(shard_path(out, {k, workers}), ignored);
    }
  return report;
}

}  // namespace coredis::exp
