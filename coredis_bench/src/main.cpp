/// \file main.cpp
/// coredis_bench, the benchmark program:
///
///   coredis_bench --workload <cold_hetero|wide_faulty|serve_mix>
///                 --seed <n> --seconds <s> --trace <0|1>
///
/// With --trace 0 it measures the workload's end-to-end metrics through
/// the user-facing programs; with --trace 1 it runs the traced per-layer
/// pass instead. Either way it checks every output against a reference,
/// prints a context line (machine probes, counts) and, last, one JSON
/// result line. A failed check makes the exit status 1; a run that
/// cannot measure (bad arguments, a generator that fell behind, a
/// program that would not start) prints no result and exits 2.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "bench_common.hpp"

namespace {

using namespace coredis_bench;

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value, &used);
      have[1] = used == value.size();
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value, &used);
      have[2] = used == value.size() && args.seconds > 0.0;
    } else if (flag == "--trace") {
      have[3] = value == "0" || value == "1";
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]))
    throw std::invalid_argument(
        "usage: coredis_bench --workload <cold_hetero|wide_faulty|serve_mix> "
        "--seed <n> --seconds <s> --trace <0|1>");
  if (args.workload != "cold_hetero" && args.workload != "wide_faulty" &&
      args.workload != "serve_mix")
    throw std::invalid_argument("unknown workload " + args.workload);
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "coredis_bench: " << error.what() << '\n';
    return 2;
  }
  Report report;
  try {
    const Clock::time_point start = Clock::now();
    if (args.workload == "serve_mix")
      run_serve_workload(args, report);
    else
      run_campaign_workload(args, report);
    report.note("run_seconds", seconds_since(start));
  } catch (const std::exception& error) {
    std::cerr << "coredis_bench: " << error.what() << '\n';
    return 2;
  }
  // Machine probes, recorded beside every result (after the measurement,
  // so they do not perturb it).
  report.note("nproc", static_cast<double>(nproc()));
  report.note("calibration_seconds", coredis::bench::calibration_seconds());
  report.note("calibration_mem_seconds", coredis::bench::calibration_mem_seconds());
  report.note("fail_frac", static_cast<double>(report.failed()) /
                               static_cast<double>(report.attempted()));
  report.print(args);
  return report.failed() == 0 ? 0 : 1;
}
