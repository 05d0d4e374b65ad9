#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace coredis_bench {

namespace {

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

// --- report ---------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value))
    throw std::logic_error("metric " + name + " is not finite");
  metrics_.push_back({name, value, unit});
}

void Report::note(const std::string& key, double value) {
  notes_.emplace_back(key, std::isfinite(value) ? json_number(value) : "null");
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, json_string(value));
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "coredis_bench: check failed: " << what << '\n';
}

void Report::print(const Args& args) const {
  std::ostringstream context;
  context << "{\"context\": {\"workload\": " << json_string(args.workload)
          << ", \"seed\": " << args.seed
          << ", \"trace\": " << (args.trace ? 1 : 0);
  for (const auto& [key, value] : notes_)
    context << ", " << json_string(key) << ": " << value;
  context << "}}";

  std::ostringstream result;
  result << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
         << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    result << (i == 0 ? "" : ", ") << json_string(m.name)
           << ": {\"value\": " << json_number(m.value)
           << ", \"unit\": " << json_string(m.unit) << "}";
  }
  result << "}}";
  std::cout << context.str() << '\n' << result.str() << std::endl;
}

// --- statistics -----------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(at));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (at - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

// --- files ----------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

ScratchDir::ScratchDir() {
  namespace fs = std::filesystem;
  const char* target = std::getenv("CARGO_TARGET_DIR");
  fs::path base = (target != nullptr && *target != '\0') ? target : ".bench_build";
  base /= "runs";
  base /= std::to_string(::getpid());
  fs::remove_all(base);
  fs::create_directories(base);
  // Relative to the working directory when possible: AF_UNIX socket
  // paths inside it must stay under the 108-byte sockaddr limit.
  std::error_code ignored;
  const fs::path relative = fs::relative(base, fs::current_path(), ignored);
  path_ = (!ignored && !relative.empty() ? relative : base).string();
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

std::string ScratchDir::file(const std::string& name) const {
  return path_ + "/" + name;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// --- tracing --------------------------------------------------------------

int Tracer::begin(const std::string& name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  spans_.push_back(std::move(span));
  spans_.back().start = Clock::now();  // last: keep bookkeeping out of the span
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const Clock::time_point now = Clock::now();
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.seconds = seconds_between(span.start, now);
  if (span.parent != kNoParent)
    spans_.at(static_cast<std::size_t>(span.parent)).child_seconds +=
        span.seconds;
}

int Tracer::add(const std::string& name, int parent, double seconds) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.seconds = seconds;
  spans_.push_back(std::move(span));
  if (parent != kNoParent)
    spans_.at(static_cast<std::size_t>(parent)).child_seconds += seconds;
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::duration(int id) const {
  return spans_.at(static_cast<std::size_t>(id)).seconds;
}

std::map<std::string, double> Tracer::self_by_name(int root) const {
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (static_cast<int>(i) == root) continue;
    // Only spans under `root` count.
    int at = spans_[i].parent;
    while (at != kNoParent && at != root)
      at = spans_[static_cast<std::size_t>(at)].parent;
    if (at != root) continue;
    totals[spans_[i].name] += spans_[i].seconds - spans_[i].child_seconds;
  }
  return totals;
}

}  // namespace coredis_bench
