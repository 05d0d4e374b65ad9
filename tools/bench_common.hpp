#pragma once

/// \file bench_common.hpp
/// Shared machinery of the bench harnesses (bench_json, bench_serve):
/// the machine-speed calibration probes. Both binaries read baselines
/// through the library's one loader (exp::load_bench_baseline in
/// exp/report.hpp). Keeping the two on one probe and one loader is what
/// makes their gates comparable — a serve baseline normalizes exactly
/// like an engine one.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace coredis::bench {

/// Single-core machine-speed probe: a fixed, deterministic spin over the
/// kernel's cost profile (expm1 + divides). Recorded into every report
/// so --check can compare *calibration-normalized* seconds — the
/// committed baseline and a CI runner are different machines, and
/// without this the tolerance would encode their hardware ratio instead
/// of a regression margin.
inline double calibration_seconds() {
  // Min over several attempts: on shared containers a single probe can
  // read 1.5x+ slow, which would skew every normalized ratio the gate
  // computes; more attempts tighten the min at negligible cost.
  double best = std::numeric_limits<double>::infinity();
  for (int attempt = 0; attempt < 7; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    double acc = 0.0, x = 1e-3;
    for (int i = 0; i < 2'000'000; ++i) {
      acc += std::expm1(x) / (1.0 + x);
      x += 1e-9;
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (acc > 0.0) best = std::min(best, elapsed.count());
  }
  return best;
}

/// Memory-bandwidth probe, the compute probe's sibling: a fixed
/// streaming sweep (read-modify-write over a 32 MiB buffer, far past
/// any LLC) whose runtime is bound by DRAM bandwidth, not ALU speed.
/// The two probes span the two resources our workloads mix — small-n
/// engine cells are compute-shaped, the storage/spill scenarios and
/// big-n coefficient tables are bandwidth-shaped — so a gate can
/// normalize by a blend instead of pretending every machine pair
/// differs by one scalar.
inline double calibration_mem_seconds() {
  constexpr std::size_t kWords = (std::size_t{32} << 20) / sizeof(std::uint64_t);
  std::vector<std::uint64_t> buffer(kWords, 1);
  double best = std::numeric_limits<double>::infinity();
  for (int attempt = 0; attempt < 5; ++attempt) {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kWords; ++i) {
      acc += buffer[i];
      buffer[i] = acc ^ (acc >> 7);
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (acc != 0) best = std::min(best, elapsed.count());
  }
  return best;
}

/// Blend the compute and memory speed ratios (mine / baseline's) into
/// one normalization factor — the geometric mean, so neither resource
/// dominates and the blend of two equal ratios is that ratio. Either
/// memory probe missing (pre-PR10 baseline) degrades to the compute
/// ratio alone.
inline double blended_speed_ratio(double my_cal, double base_cal,
                                  double my_mem, double base_mem) {
  const double compute = base_cal > 0.0 ? my_cal / base_cal : 1.0;
  if (my_mem <= 0.0 || base_mem <= 0.0) return compute;
  return std::sqrt(compute * (my_mem / base_mem));
}

/// Read a whole file; throws with the path on failure.
inline std::string slurp_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace coredis::bench
