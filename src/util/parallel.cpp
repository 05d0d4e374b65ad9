#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace coredis {

bool parse_thread_count(const std::string& text, std::size_t& count,
                        std::string& error) {
  if (text.empty()) {
    error = "COREDIS_THREADS is empty";
    return false;
  }
  std::size_t parsed = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      error = "COREDIS_THREADS='" + text + "' is not a plain decimal integer";
      return false;
    }
    parsed = parsed * 10 + static_cast<std::size_t>(c - '0');
    if (parsed > max_thread_override()) {
      error = "COREDIS_THREADS='" + text + "' exceeds the maximum of " +
              std::to_string(max_thread_override());
      return false;
    }
  }
  count = parsed;
  error.clear();
  return true;
}

std::size_t default_thread_count() {
  const unsigned hc = std::thread::hardware_concurrency();
  const std::size_t fallback = hc == 0 ? 1 : hc;
  if (const char* env = std::getenv("COREDIS_THREADS")) {
    std::size_t count = 0;
    std::string error;
    if (parse_thread_count(env, count, error)) return count;
    // Warn once per process: default_thread_count runs on every
    // parallel_for, and a warning per call would drown real output.
    static const bool warned = [&] {
      std::fprintf(stderr, "coredis: %s; falling back to %zu hardware %s\n",
                   error.c_str(), fallback,
                   fallback == 1 ? "thread" : "threads");
      return true;
    }();
    (void)warned;
  }
  return fallback;
}

std::size_t thread_budget_share(std::size_t workers, std::size_t index) {
  if (workers == 0) return default_thread_count();
  const std::size_t total = default_thread_count();
  const std::size_t share = total / workers + (index < total % workers);
  return std::max<std::size_t>(share, 1);
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  threads = std::min(threads, count);

  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&] {
    for (;;) {
      // The stop flag is checked both before claiming an index and before
      // running the body, so after a throw the surviving workers stop
      // draining the queue. Best-effort by nature: a worker already past
      // both checks when the flag is set still finishes that one body —
      // at most one in-flight body per surviving worker.
      if (stop.load(std::memory_order_acquire)) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      if (stop.load(std::memory_order_acquire)) return;
      try {
        body(i);
      } catch (...) {
        {
          std::lock_guard lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        stop.store(true, std::memory_order_release);
        return;
      }
    }
  };

  std::vector<std::jthread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  pool.clear();  // join

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace coredis
