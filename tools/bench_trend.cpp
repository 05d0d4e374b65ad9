/// \file bench_trend.cpp
/// Render the BENCH_* trajectory: given the committed per-PR baselines
/// (oldest first), print one row per scenario with each file's
/// min-over-runs seconds — normalized by the files' calibration probes,
/// so numbers recorded on different machines line up — plus the overall
/// speedup from the first file that knows the scenario to the last.
///
///   build/bench_trend BENCH_PR2.json BENCH_PR5.json
///
/// An empty or missing baseline list is not an error: unreadable files
/// are skipped with a warning and the table renders from whatever
/// remains — down to the header-only seed table when nothing does — so
/// the README recipe works on a fresh clone and in CI jobs that prune
/// old baselines. A file that reads but does not parse as a
/// coredis-bench-v1 report (exp::load_bench_baseline) exits 1 naming the
/// file and byte offset, so a broken committed baseline cannot silently
/// turn into "-" cells. Referenced from README "Performance".

#include <exception>
#include <fstream>
#include <iostream>
#include <vector>

#include "exp/report.hpp"

int main(int argc, char** argv) {
  std::vector<coredis::exp::BenchBaseline> files;
  for (int a = 1; a < argc; ++a) {
    if (!std::ifstream(argv[a])) {
      std::cerr << "bench_trend: skipping unreadable baseline " << argv[a]
                << "\n";
      continue;
    }
    try {
      files.push_back(coredis::exp::load_bench_baseline(argv[a]));
    } catch (const std::exception& failure) {
      std::cerr << "bench_trend: " << failure.what() << "\n";
      return 1;
    }
  }
  std::cout << coredis::exp::render_bench_trend(files);
  return 0;
}
