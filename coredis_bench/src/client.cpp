#include "client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>

namespace coredis_bench {

namespace {

timespec to_timespec(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  return ts;
}

/// Move every complete line out of `inbox` into `lines`.
void take_lines(std::string& inbox, std::vector<std::string>& lines) {
  std::size_t start = 0;
  std::size_t newline;
  while ((newline = inbox.find('\n', start)) != std::string::npos) {
    lines.push_back(inbox.substr(start, newline - start));
    start = newline + 1;
  }
  inbox.erase(0, start);
}

}  // namespace

// --- Connection -----------------------------------------------------------

Connection::Connection(const std::string& socket_path, double timeout_seconds) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof address.sun_path)
    throw std::runtime_error("socket path too long: " + socket_path);
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const Clock::time_point start = Clock::now();
  for (;;) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                  sizeof address) == 0)
      return;
    ::close(fd_);
    fd_ = -1;
    if (seconds_since(start) > timeout_seconds)
      throw std::runtime_error("cannot connect to " + socket_path);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::send_all(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN) {
        pollfd out{fd_, POLLOUT, 0};
        ::poll(&out, 1, 100);
        continue;
      }
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string Connection::read_line(double timeout_seconds) {
  const Clock::time_point start = Clock::now();
  for (;;) {
    const std::size_t newline = inbox_.find('\n');
    if (newline != std::string::npos) {
      std::string line = inbox_.substr(0, newline);
      inbox_.erase(0, newline + 1);
      return line;
    }
    const double left = timeout_seconds - seconds_since(start);
    if (left <= 0.0) throw std::runtime_error("timed out waiting for a reply");
    pollfd in{fd_, POLLIN, 0};
    const timespec ts = to_timespec(left);
    if (::ppoll(&in, 1, &ts, nullptr) <= 0) continue;
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) throw std::runtime_error("connection closed by the daemon");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    }
    inbox_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string Connection::round_trip(const std::string& line,
                                   double timeout_seconds) {
  send_all(line + "\n");
  return read_line(timeout_seconds);
}

// --- Daemon ---------------------------------------------------------------

Daemon::Daemon(const ScratchDir& scratch, const std::string& name,
               std::size_t pool_capacity, std::size_t threads,
               std::size_t max_connections)
    : socket_(scratch.file(name + ".sock")) {
  spawned_ = Clock::now();
  child_ = std::make_unique<Child>(
      std::vector<std::string>{COREDIS_BENCH_SERVE_BIN, "--socket", socket_,
                               "--pool", std::to_string(pool_capacity),
                               "--threads", std::to_string(threads),
                               "--max-connections",
                               std::to_string(max_connections), "--replace"},
      scratch.file(name + ".log"));
}

double Daemon::wait_ready() {
  Connection connection(socket_, 30.0);
  const std::string reply =
      connection.round_trip("{\"id\":0,\"op\":\"ping\"}", 30.0);
  const double seconds = seconds_since(spawned_);
  if (reply.find("\"ok\":true") == std::string::npos)
    throw std::runtime_error("daemon answered ping with: " + reply);
  return seconds;
}

bool Daemon::shutdown() {
  try {
    Connection connection(socket_, 5.0);
    connection.round_trip("{\"id\":0,\"op\":\"shutdown\"}", 10.0);
  } catch (const std::exception&) {
    child_->terminate();
    return false;
  }
  return child_->wait().ok();
}

// --- open loop ------------------------------------------------------------

OpenLoopResult run_open_loop(
    std::vector<std::unique_ptr<Connection>>& connections,
    const std::vector<std::string>& lines, const std::vector<double>& due,
    double drain_timeout_seconds) {
  const std::size_t count = lines.size();
  const std::size_t width = connections.size();
  OpenLoopResult result;
  result.latency.assign(count, -1.0);
  result.lateness.assign(count, 0.0);
  result.replies.assign(count, std::string());
  if (count == 0) return result;

  std::vector<std::deque<std::size_t>> outstanding(width);
  std::vector<std::string> outbox(width);
  std::vector<pollfd> fds(width);
  for (std::size_t c = 0; c < width; ++c) {
    const int fd = connections[c]->fd();
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    fds[c].fd = fd;
  }

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due[i]));
  };
  std::size_t next = 0;
  std::size_t received = 0;
  bool closed = false;
  Clock::time_point last_reply = start;
  std::vector<std::string> reply_lines;

  while (received < count && !closed) {
    Clock::time_point now = Clock::now();
    while (next < count && due_at(next) <= now) {
      const std::size_t c = next % width;
      outbox[c] += lines[next];
      outbox[c] += '\n';
      outstanding[c].push_back(next);
      result.lateness[next] = seconds_between(due_at(next), now);
      ++next;
    }
    for (std::size_t c = 0; c < width; ++c) {
      while (!outbox[c].empty()) {
        const ssize_t n = ::send(fds[c].fd, outbox[c].data(), outbox[c].size(),
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno != EAGAIN) closed = true;
          break;
        }
        outbox[c].erase(0, static_cast<std::size_t>(n));
      }
      fds[c].events = static_cast<short>(POLLIN | (outbox[c].empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    double wait = 0.0;
    if (next < count) {
      wait = seconds_between(now, due_at(next));
    } else {
      wait = drain_timeout_seconds - seconds_between(due_at(count - 1), now);
      if (wait <= 0.0) break;  // replies still missing after the drain window
    }
    const timespec ts = to_timespec(wait);
    const int ready = ::ppoll(fds.data(), width, &ts, nullptr);
    if (ready <= 0) continue;
    for (std::size_t c = 0; c < width; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::string& inbox = connections[c]->pending();
      for (;;) {
        char chunk[65536];
        const ssize_t n = ::recv(fds[c].fd, chunk, sizeof chunk, MSG_DONTWAIT);
        if (n > 0) {
          inbox.append(chunk, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) closed = true;
        break;
      }
      reply_lines.clear();
      take_lines(inbox, reply_lines);
      const Clock::time_point at = Clock::now();
      for (std::string& reply : reply_lines) {
        if (outstanding[c].empty()) {
          closed = true;  // a reply nobody asked for: protocol broken
          break;
        }
        const std::size_t i = outstanding[c].front();
        outstanding[c].pop_front();
        result.replies[i] = std::move(reply);
        result.latency[i] = seconds_between(due_at(i), at);
        last_reply = at;
        ++received;
      }
    }
  }
  result.missing = count - received;
  result.drain_seconds = seconds_between(due_at(count - 1), last_reply);
  for (auto& connection : connections) {
    const int fd = connection->fd();
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  }
  return result;
}

}  // namespace coredis_bench
