#pragma once

/// \file client.hpp
/// The benchmark's side of the coredis_serve socket: a spawned daemon,
/// blocking connections for sequential round trips, and the single-
/// threaded open-loop generator that drives several connections from a
/// precomputed send schedule.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace coredis_bench {

/// A connected AF_UNIX stream socket speaking the newline protocol.
class Connection {
 public:
  /// Connect to `socket_path`, retrying until `timeout_seconds` pass
  /// (the daemon may still be binding).
  Connection(const std::string& socket_path, double timeout_seconds);
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection();

  void send_all(const std::string& bytes);
  /// The next reply line (without its newline); throws after
  /// `timeout_seconds` or on EOF.
  std::string read_line(double timeout_seconds);
  /// send_all(line + '\n') then read_line.
  std::string round_trip(const std::string& line, double timeout_seconds);

  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// Bytes received but not yet returned as lines.
  std::string& pending() noexcept { return inbox_; }

 private:
  int fd_ = -1;
  std::string inbox_;
};

/// A coredis_serve process on a socket in the scratch directory.
class Daemon {
 public:
  Daemon(const ScratchDir& scratch, const std::string& name,
         std::size_t pool_capacity, std::size_t threads,
         std::size_t max_connections);
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Block until the daemon answers a ping; returns the seconds from
  /// spawn to that reply (the serving set-up time).
  double wait_ready();
  /// Send the `shutdown` op and reap the daemon; true on a clean exit.
  bool shutdown();

  [[nodiscard]] const std::string& socket_path() const noexcept {
    return socket_;
  }
  [[nodiscard]] pid_t pid() const noexcept { return child_->pid(); }

 private:
  std::string socket_;
  Clock::time_point spawned_;
  std::unique_ptr<Child> child_;
};

/// One open-loop phase: request i is due at start + due[i] seconds and
/// goes to connection i % connections.size(); replies are matched in
/// per-connection order. Latency is measured from the due time.
struct OpenLoopResult {
  std::vector<double> latency;   ///< seconds from due to reply; < 0 = none
  std::vector<double> lateness;  ///< seconds from due to actual send
  std::vector<std::string> replies;
  double drain_seconds = 0.0;    ///< last reply minus last due time
  std::size_t missing = 0;       ///< requests without a reply
};

OpenLoopResult run_open_loop(
    std::vector<std::unique_ptr<Connection>>& connections,
    const std::vector<std::string>& lines, const std::vector<double>& due,
    double drain_timeout_seconds);

}  // namespace coredis_bench
