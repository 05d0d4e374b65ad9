/// \file bench_serve.cpp
/// Open-loop latency harness for `coredis_serve` (DESIGN.md section 9):
/// drives a running daemon with a pinned what-if/admission mix over
/// Poisson arrivals and reports request latency percentiles (p50/p90/
/// p99) plus throughput, in the same coredis-bench-v1 schema as
/// bench_json — so the serve numbers ride the same BENCH_* trajectory,
/// calibration-normalized gates and bench_trend table as the engine
/// numbers.
///
///   bench_serve --socket /run/coredis.sock [--connections 8]
///               [--requests 200] [--rate 200] [--seed 20260807]
///               [--out serve.json] [--check BENCH_PR8.json]
///               [--tolerance 3] [--append-to BENCH_PR8.json] [--shutdown]
///
/// Open-loop means latency is measured from each request's *scheduled*
/// send time, not its actual one — a daemon that falls behind sees the
/// backlog counted against it, which is what an admission client
/// experiences. The mix also pins one what-if response's
/// baseline_makespan into the report, so --check catches semantic drift
/// in the served results exactly like bench_json --check-makespan.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "exp/report.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define COREDIS_BENCH_SERVE_POSIX 1
#include <cerrno>
#include <csignal>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace {

using namespace coredis;
using Clock = std::chrono::steady_clock;

#ifdef COREDIS_BENCH_SERVE_POSIX

/// The pinned request mix: small scenarios (a what-if must be
/// interactive) cycled over repetitions and config selectors so the
/// daemon sees warm hits, cold misses and batch groups of varying
/// overlap. ';' is the protocol's scenario line separator.
constexpr const char* kScenarios[2] = {
    "n = 6; p = 24; mtbf_years = 5",
    "n = 8; p = 32; mtbf_years = 3",
};
constexpr const char* kConfigSets[3] = {"paper", "ig_local",
                                        "stf_greedy,stf_local"};
constexpr int kReps = 4;

struct PlannedRequest {
  std::string line;             ///< the wire request, newline-terminated
  Clock::time_point scheduled;  ///< open-loop send time
};

struct Connection {
  int fd = -1;
  std::vector<PlannedRequest> requests;  ///< this connection's share
  std::vector<double> latencies;         ///< seconds, by request
  Clock::time_point last_reply;
  std::string failure;  ///< non-empty: what went wrong
};

int connect_socket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string error = strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot connect to " + path + ": " + error);
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read one newline-terminated response, buffering leftovers.
bool recv_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// One round-trip on a dedicated connection (warm-up, shutdown).
std::string round_trip(const std::string& socket_path,
                       const std::string& request) {
  const int fd = connect_socket(socket_path);
  std::string buffer, line;
  const bool ok = send_all(fd, request + "\n") && recv_line(fd, buffer, line);
  ::close(fd);
  if (!ok) throw std::runtime_error("round trip failed for: " + request);
  return line;
}

/// Whether `line` is a well-formed {"ok":true,...} reply; stores the
/// reply's baseline_makespan, when it carries one, into `makespan`.
bool reply_ok(const std::string& line, double* makespan = nullptr) {
  bool ok = false;
  try {
    json::Reader in(line);
    in.object([&](const std::string& key) {
      if (key == "ok") ok = in.boolean();
      else if (key == "baseline_makespan" && makespan) *makespan = in.number();
      else (void)in.skip();
    });
    in.finish();
  } catch (const json::Error&) {
    return false;
  }
  return ok;
}

std::string make_request(std::uint64_t id, int scenario, int rep,
                         int config_set) {
  std::string line = "{\"id\":";
  line += std::to_string(id);
  // Alternate what_if and admit-against-baseline: same evaluation work,
  // both response shapes exercised.
  line += id % 2 == 0 ? ",\"op\":\"what_if\"" : ",\"op\":\"admit\"";
  line += ",\"tenant\":\"bench\",\"scenario\":\"";
  line += kScenarios[scenario];
  line += "\",\"configs\":\"";
  line += kConfigSets[config_set];
  line += "\",\"rep\":";
  line += std::to_string(rep);
  line += "}";
  return line;
}

void run_connection(Connection& conn) {
  // Writer: pace the open-loop schedule. Reader: inline after each poll
  // of the buffer would couple send times to replies, so reads get their
  // own thread; per-connection responses arrive in request order.
  std::thread reader([&conn] {
    std::string buffer, line;
    for (std::size_t i = 0; i < conn.requests.size(); ++i) {
      if (!recv_line(conn.fd, buffer, line)) {
        conn.failure = "connection dropped after " + std::to_string(i) +
                       " replies";
        return;
      }
      const Clock::time_point now = Clock::now();
      if (!reply_ok(line)) {
        conn.failure = "error response: " + line;
        return;
      }
      conn.latencies.push_back(
          std::chrono::duration<double>(now - conn.requests[i].scheduled)
              .count());
      conn.last_reply = now;
    }
  });
  for (const PlannedRequest& request : conn.requests) {
    std::this_thread::sleep_until(request.scheduled);
    if (!send_all(conn.fd, request.line)) {
      if (conn.failure.empty()) conn.failure = "send failed";
      break;
    }
  }
  reader.join();
}

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
  return sorted[rank];
}

struct ServeMeasurement {
  std::string name;
  double seconds = 0.0;
  double throughput = 0.0;
  int requests = 0;
  double makespan = 0.0;  ///< pinned what-if baseline_makespan (drift gate)
};

/// One scenario object in bench_json's exact layout, so bench_trend and
/// the --check readers treat serve entries like any other scenario.
std::string scenario_object(const ServeMeasurement& m) {
  using json::format_number;
  std::ostringstream out;
  out << "    {\"name\": \"" << json::escape(m.name)
      << "\", \"n\": 6, \"p\": 24, \"runs\": " << m.requests
      << ",\n     \"seconds_per_run\": " << format_number(m.seconds)
      << ", \"seconds_per_run_min\": " << format_number(m.seconds)
      << ", \"events_per_sec\": " << format_number(m.throughput)
      << ",\n     \"faults_per_run\": 0, \"checkpoints_per_run\": 0"
      << ", \"makespan_mean\": " << format_number(m.makespan)
      << ", \"peak_rss_kb\": 0}";
  return out.str();
}

std::string to_json(const std::vector<ServeMeasurement>& measurements,
                    double calibration) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"coredis-bench-v1\",\n  \"calibration_seconds\": "
      << json::format_number(calibration) << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < measurements.size(); ++i)
    out << scenario_object(measurements[i])
        << (i + 1 < measurements.size() ? "," : "") << "\n";
  out << "  ]\n}\n";
  return out.str();
}

/// Splice the serve_* scenario objects into an existing coredis-bench-v1
/// report: drop any previous serve_* entries, append ours, keep
/// everything else byte-identical — the kept objects and the text around
/// the scenarios array are copied from the reader's raw spans. The shared
/// loader validates the file first (failing with its path and byte
/// offset) and names the array's elements in order. Written
/// crash-atomically so a killed append never truncates a baseline.
void append_to_report(const std::string& path,
                      const std::vector<ServeMeasurement>& measurements) {
  const exp::BenchBaseline report = exp::load_bench_baseline(path);
  const std::string text = bench::slurp_file(path);
  std::string_view array;
  json::Reader in(text);
  in.object([&](const std::string& key) {
    const std::string_view value = in.skip();
    if (key == "scenarios") array = value;
  });
  std::vector<std::string> objects;
  json::Reader items(array);
  std::size_t index = 0;
  items.array([&] {
    const std::string_view object = items.skip();
    if (!report.scenarios.at(index++).name.starts_with("serve_"))
      objects.emplace_back(object);
  });
  for (const ServeMeasurement& m : measurements)
    objects.push_back(scenario_object(m).substr(4));  // indent added below

  const std::size_t open = static_cast<std::size_t>(array.data() - text.data());
  std::string out = text.substr(0, open + 1);
  out += '\n';
  for (std::size_t i = 0; i < objects.size(); ++i) {
    out += "    ";
    out += objects[i];
    out += i + 1 < objects.size() ? ",\n" : "\n";
  }
  out += "  ";
  out += text.substr(open + array.size() - 1);  // from the closing ']'

  const std::string temp = atomic_temp_path(path);
  {
    std::ofstream file(temp, std::ios::trunc);
    if (!file) throw std::runtime_error("cannot write " + temp);
    file << out;
  }
  commit_file(temp, path);
}

int run(int argc, char** argv) {
  CliParser cli(argc, argv);
  cli.describe("socket", "AF_UNIX socket of a running coredis_serve")
      .describe("connections", "concurrent client connections (default 8)")
      .describe("requests", "total timed requests (default 200)")
      .describe("rate", "offered load, requests/second (default 200)")
      .describe("seed", "arrival schedule seed (default 20260807)")
      .describe("out", "write the JSON report to this path")
      .describe("check",
                "baseline JSON to compare against; exits 1 on regression "
                "or served-result drift")
      .describe("tolerance",
                "normalized latency ratio treated as a regression "
                "(default 3; latency percentiles are noisier than "
                "single-thread runtimes)")
      .describe("append-to",
                "splice the serve_* scenarios into this existing "
                "coredis-bench-v1 report (atomic rewrite)")
      .describe("shutdown", "send a shutdown request after measuring");
  if (cli.wants_help()) {
    std::cout << cli.usage("Open-loop latency benchmark for coredis_serve");
    return 0;
  }
  cli.reject_unknown();

  const std::string socket_path = cli.get_string("socket", "");
  if (socket_path.empty())
    throw std::runtime_error("--socket is required");
  const int connections = static_cast<int>(cli.get_int("connections", 8));
  const int requests = static_cast<int>(cli.get_int("requests", 200));
  const double rate = cli.get_double("rate", 200.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 20260807));
  const double tolerance = cli.get_double("tolerance", 3.0);
  if (connections < 1 || requests < 1 || rate <= 0.0)
    throw std::runtime_error(
        "--connections/--requests must be >= 1 and --rate > 0");

  std::signal(SIGPIPE, SIG_IGN);

  // Untimed warm-up: touch every (scenario, rep) key the mix uses so the
  // timed phase measures serving, not first-touch workspace builds, and
  // pin the drift-gate makespan from the canonical first request.
  double pinned_makespan = 0.0;
  for (int scenario = 0; scenario < 2; ++scenario)
    for (int rep = 0; rep < kReps; ++rep) {
      const std::string line = round_trip(
          socket_path, make_request(1000u + static_cast<std::uint64_t>(
                                               scenario * kReps + rep),
                                    scenario, rep, 0));
      double makespan = -1.0;
      if (!reply_ok(line, &makespan))
        throw std::runtime_error("warm-up request failed: " + line);
      if (makespan < 0.0)
        throw std::runtime_error("no baseline_makespan in: " + line);
      if (scenario == 0 && rep == 0) pinned_makespan = makespan;
    }

  // Open-loop Poisson schedule, pinned by --seed: gap i ~ Exp(rate).
  // Latency counts from these absolute times, so a daemon that falls
  // behind pays for its backlog.
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(100);
  std::vector<Connection> conns(static_cast<std::size_t>(connections));
  double offset = 0.0;
  for (int i = 0; i < requests; ++i) {
    offset += gap(rng);
    PlannedRequest planned;
    planned.line = make_request(static_cast<std::uint64_t>(i),
                                i % 2, (i / 2) % kReps, i % 3) +
                   "\n";
    planned.scheduled =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset));
    conns[static_cast<std::size_t>(i % connections)].requests.push_back(
        std::move(planned));
  }

  for (Connection& conn : conns) conn.fd = connect_socket(socket_path);
  std::vector<std::thread> drivers;
  drivers.reserve(conns.size());
  for (Connection& conn : conns)
    drivers.emplace_back([&conn] { run_connection(conn); });
  for (std::thread& driver : drivers) driver.join();
  for (Connection& conn : conns) ::close(conn.fd);

  std::vector<double> latencies;
  Clock::time_point last_reply = start;
  for (const Connection& conn : conns) {
    if (!conn.failure.empty())
      throw std::runtime_error("connection failed: " + conn.failure);
    latencies.insert(latencies.end(), conn.latencies.begin(),
                     conn.latencies.end());
    last_reply = std::max(last_reply, conn.last_reply);
  }
  if (static_cast<int>(latencies.size()) != requests)
    throw std::runtime_error("lost replies: got " +
                             std::to_string(latencies.size()));
  std::sort(latencies.begin(), latencies.end());
  const double wall = std::chrono::duration<double>(last_reply - start).count();
  const double throughput =
      wall > 0.0 ? static_cast<double>(requests) / wall : 0.0;

  std::vector<ServeMeasurement> measurements;
  const std::pair<const char*, double> kPercentiles[] = {
      {"serve_p50", 0.50}, {"serve_p90", 0.90}, {"serve_p99", 0.99}};
  for (const auto& [name, q] : kPercentiles) {
    ServeMeasurement m;
    m.name = name;
    m.seconds = percentile(latencies, q);
    m.throughput = throughput;
    m.requests = requests;
    m.makespan = pinned_makespan;
    measurements.push_back(std::move(m));
  }
  for (const ServeMeasurement& m : measurements)
    std::fprintf(stderr, "%-10s %9.2f ms   %8.1f req/s\n", m.name.c_str(),
                 m.seconds * 1e3, m.throughput);

  const double calibration = bench::calibration_seconds();
  const std::string json = to_json(measurements, calibration);
  const std::string out_path = cli.get_string("out", "");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) throw std::runtime_error("cannot write " + out_path);
    out << json;
  } else if (cli.get_string("append-to", "").empty()) {
    std::cout << json;
  }

  const std::string append_path = cli.get_string("append-to", "");
  if (!append_path.empty()) {
    append_to_report(append_path, measurements);
    std::fprintf(stderr, "appended serve_* to %s\n", append_path.c_str());
  }

  int exit_code = 0;
  const std::string baseline_path = cli.get_string("check", "");
  if (!baseline_path.empty()) {
    const exp::BenchBaseline baseline =
        exp::load_bench_baseline(baseline_path);
    const double speed_ratio =
        baseline.calibration > 0.0 ? calibration / baseline.calibration : 1.0;
    std::fprintf(stderr, "machine speed vs baseline: %.2fx\n", speed_ratio);
    std::size_t compared = 0;
    for (const ServeMeasurement& m : measurements) {
      const exp::BenchScenario* recorded = baseline.find(m.name);
      if (recorded == nullptr || recorded->seconds_per_run_min <= 0.0) {
        std::fprintf(stderr, "%-10s not in baseline; skipped\n",
                     m.name.c_str());
        continue;
      }
      ++compared;
      const double ratio =
          m.seconds / (recorded->seconds_per_run_min * speed_ratio);
      const bool bad = ratio > tolerance;
      if (bad) exit_code = 1;
      std::fprintf(stderr, "%-10s %.2fx vs baseline (normalized)%s\n",
                   m.name.c_str(), ratio, bad ? "  REGRESSION" : "");
      const double base_makespan = recorded->makespan_mean;
      if (base_makespan > 0.0 && base_makespan != m.makespan) {
        exit_code = 1;
        std::fprintf(stderr,
                     "%-10s served makespan drift: %.17g vs baseline %.17g\n",
                     m.name.c_str(), m.makespan, base_makespan);
      }
    }
    // A gate that compared nothing would pass vacuously.
    if (compared == 0)
      throw std::runtime_error("no measured scenario is in baseline " +
                               baseline_path);
  }

  if (cli.get_bool("shutdown")) {
    const std::string reply =
        round_trip(socket_path, "{\"id\":9999,\"op\":\"shutdown\"}");
    if (!reply_ok(reply))
      throw std::runtime_error("shutdown refused: " + reply);
    std::fprintf(stderr, "daemon acknowledged shutdown\n");
  }
  return exit_code;
}

#endif  // COREDIS_BENCH_SERVE_POSIX

}  // namespace

int main(int argc, char** argv) {
#ifdef COREDIS_BENCH_SERVE_POSIX
  try {
    return run(argc, argv);
  } catch (const std::exception& failure) {
    std::fprintf(stderr, "bench_serve: %s\n", failure.what());
    return 2;
  }
#else
  (void)argc;
  (void)argv;
  std::fprintf(stderr, "bench_serve requires a POSIX platform\n");
  return 2;
#endif
}
