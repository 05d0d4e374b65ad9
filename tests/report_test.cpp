/// Golden tests for the report renderers (exp/report.hpp): the
/// normalized/makespan tables, the ASCII plot, the check list, the sweep
/// CSV, and the EXPERIMENTS.md check-record pipeline — previously only
/// exercised indirectly through the fig binaries.

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/report.hpp"

namespace coredis::exp {
namespace {

/// Deterministic two-point, two-config sweep with hand-computable means:
/// normalized IG = {0.80, 0.82} -> 0.81 at x=100, {0.70, 0.72} -> 0.71
/// at x=200.
Sweep make_sweep() {
  Sweep sweep;
  sweep.x_label = "#procs";
  sweep.x = {100.0, 200.0};
  for (int i = 0; i < 2; ++i) {
    PointResult point;
    ConfigOutcome base;
    base.name = "baseline";
    ConfigOutcome ig;
    ig.name = "IG-EndLocal";
    for (int r = 0; r < 2; ++r) {
      base.normalized.add(1.0);
      base.makespan.add(1000.0 + 100.0 * i + 10.0 * r);
      ig.normalized.add(0.8 - 0.1 * i + 0.02 * r);
      ig.makespan.add(800.0 + 50.0 * i + 10.0 * r);
    }
    point.configs = {base, ig};
    sweep.points.push_back(point);
  }
  return sweep;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file) << "cannot open " << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

TEST(Report, NormalizedTableGolden) {
  const std::string expected =
      "  #procs  baseline  IG-EndLocal\n"
      "-------------------------------\n"
      "100.0000    1.0000       0.8100\n"
      "200.0000    1.0000       0.7100\n";
  EXPECT_EQ(render_normalized_table(make_sweep()), expected);
}

TEST(Report, NormalizedTableHonorsPrecision) {
  const std::string expected =
      "#procs  baseline  IG-EndLocal\n"
      "-----------------------------\n"
      " 100.0       1.0          0.8\n"
      " 200.0       1.0          0.7\n";
  EXPECT_EQ(render_normalized_table(make_sweep(), 1), expected);
}

TEST(Report, MakespanTableGolden) {
  const std::string expected =
      "#procs  baseline  IG-EndLocal\n"
      "-----------------------------\n"
      "   100      1005          805\n"
      "   200      1105          855\n";
  EXPECT_EQ(render_makespan_table(make_sweep()), expected);
}

TEST(Report, NormalizedPlotShapeAndLegend) {
  const std::string plot = render_normalized_plot(make_sweep());
  // Deterministic: same sweep, same bytes.
  EXPECT_EQ(plot, render_normalized_plot(make_sweep()));
  std::vector<std::string> lines;
  std::istringstream stream(plot);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 5u);
  // The paper's normalized band is the default frame.
  EXPECT_EQ(lines.front().rfind("1.05 |", 0), 0u) << plot;
  // Legend lines are exact; the axis line names the sweep variable and
  // its bounds.
  EXPECT_EQ(lines[lines.size() - 2], "  * = baseline") << plot;
  EXPECT_EQ(lines.back(), "  + = IG-EndLocal") << plot;
  const std::string& axis = lines[lines.size() - 3];
  EXPECT_NE(axis.find("#procs"), std::string::npos) << plot;
  EXPECT_NE(axis.find("100"), std::string::npos) << plot;
  EXPECT_NE(axis.find("200"), std::string::npos) << plot;
  // The baseline series sits pinned at 1.0: one full row of '*'.
  bool baseline_row = false;
  for (const std::string& row : lines)
    baseline_row = baseline_row || row.find("****") != std::string::npos;
  EXPECT_TRUE(baseline_row) << plot;
}

TEST(Report, ChecksRenderGolden) {
  const std::vector<ShapeCheck> checks{{"first check", true, "a=1 b=2"},
                                       {"second check", false, ""}};
  EXPECT_EQ(render_checks(checks),
            "[PASS] first check  (a=1 b=2)\n"
            "[FAIL] second check\n");
  EXPECT_EQ(render_checks({}), "");
}

TEST(Report, MeanAndPointAccessors) {
  const Sweep sweep = make_sweep();
  EXPECT_DOUBLE_EQ(normalized_at(sweep, 0, 1), 0.81);
  EXPECT_DOUBLE_EQ(normalized_at(sweep, 1, 1), 0.71);
  EXPECT_DOUBLE_EQ(mean_normalized(sweep, 0), 1.0);
  EXPECT_DOUBLE_EQ(mean_normalized(sweep, 1), 0.76);
}

TEST(Report, SweepCsvRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    "coredis_report_test_sweep.csv";
  std::filesystem::remove(path);
  save_sweep_csv(make_sweep(), path.string());
  const std::string expected =
      "#procs,baseline (normalized),baseline (ci95),baseline (makespan s),"
      "IG-EndLocal (normalized),IG-EndLocal (ci95),IG-EndLocal (makespan s)\n"
      "100,1,0,1005,0.81,0.0196,805\n"
      "200,1,0,1105,0.71,0.0196,855\n";
  EXPECT_EQ(read_file(path), expected);
  std::filesystem::remove(path);
}

TEST(Report, CheckRecordsRoundTripWithEscaping) {
  const auto path = std::filesystem::temp_directory_path() /
                    "coredis_report_test_checks.jsonl";
  std::filesystem::remove(path);
  CheckReport first;
  first.figure = "fig99_demo";
  first.title = "Demo \"quoted\" panel";
  first.command = "fig99_demo --runs 2 --scenario a\\b.txt";
  first.checks = {{"gain\nholds", true, "x=1"}, {"plain", false, ""}};
  append_check_records(path.string(), first);
  CheckReport second;
  second.figure = "fig99_demo";
  second.title = "Another panel";  // new title => new report group
  second.command = first.command;
  second.checks = {{"tail check", true, "detail"}};
  append_check_records(path.string(), second);

  const std::vector<CheckReport> loaded = load_check_records(path.string());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].figure, first.figure);
  EXPECT_EQ(loaded[0].title, first.title);
  EXPECT_EQ(loaded[0].command, first.command);
  ASSERT_EQ(loaded[0].checks.size(), 2u);
  EXPECT_EQ(loaded[0].checks[0].description, "gain\nholds");
  EXPECT_TRUE(loaded[0].checks[0].pass);
  EXPECT_EQ(loaded[0].checks[0].detail, "x=1");
  EXPECT_FALSE(loaded[0].checks[1].pass);
  EXPECT_EQ(loaded[1].title, "Another panel");
  ASSERT_EQ(loaded[1].checks.size(), 1u);
  std::filesystem::remove(path);
}

TEST(Report, CheckRecordsRejectMalformedLines) {
  const auto path = std::filesystem::temp_directory_path() /
                    "coredis_report_test_badchecks.jsonl";
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << "{\"figure\":\"f\",garbage\n";
  }
  try {
    (void)load_check_records(path.string());
    FAIL() << "must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(":1"), std::string::npos)
        << error.what();
  }
  EXPECT_THROW((void)load_check_records("/nonexistent/coredis_checks"),
               std::runtime_error);
  std::filesystem::remove(path);
}

/// Minimal bench_json outputs for the trend renderer: the seed machine
/// is twice as fast (calibration 0.005 vs 0.010), so its 10 ms run
/// normalizes to 20 ms on the latest machine.
BenchBaseline seed_baseline() {
  return parse_bench_baseline(
      "{\n"
      "  \"calibration_seconds\": 0.005,\n"
      "  \"scenarios\": [\n"
      "    { \"name\": \"smoke_a\", \"seconds_per_run_min\": 0.010 }\n"
      "  ]\n"
      "}\n",
      "BENCH_PR2");
}

BenchBaseline latest_baseline() {
  return parse_bench_baseline(
      "{\n"
      "  \"calibration_seconds\": 0.010,\n"
      "  \"scenarios\": [\n"
      "    { \"name\": \"smoke_a\", \"seconds_per_run_min\": 0.012 },\n"
      "    { \"name\": \"smoke_b\", \"seconds_per_run_min\": 0.020 }\n"
      "  ]\n"
      "}\n",
      "BENCH_PR6");
}

TEST(Report, BenchTrendGolden) {
  // smoke_a: 10 ms at cal 0.005 -> 20 ms normalized, vs 12 ms -> 1.67x.
  // smoke_b only exists in the latest file, so its speedup is "-". The
  // machine-probe table shows the calibrations behind the
  // normalization; neither file records the PR 10 membw probe, so that
  // column is all "-".
  const std::string expected =
      "scenario  BENCH_PR2 (ms)  BENCH_PR6 (ms)  speedup\n"
      "-------------------------------------------------\n"
      " smoke_a           20.00           12.00    1.67x\n"
      " smoke_b               -           20.00        -\n"
      "\n"
      "     file  compute probe (ms)  membw probe (ms)\n"
      "-----------------------------------------------\n"
      "BENCH_PR2                5.00                 -\n"
      "BENCH_PR6               10.00                 -\n";
  EXPECT_EQ(render_bench_trend({seed_baseline(), latest_baseline()}),
            expected);
}

TEST(Report, BenchTrendShowsTheMembwProbeWhenRecorded) {
  // A PR 10-era baseline carries both probes; its membw cell renders in
  // ms like the compute one while the pre-PR10 file keeps "-".
  BenchBaseline with_membw = latest_baseline();
  with_membw.label = "BENCH_PR10";
  with_membw.mem_calibration = 0.0025;
  const std::string rendered =
      render_bench_trend({seed_baseline(), with_membw});
  EXPECT_NE(rendered.find("BENCH_PR10               10.00              2.50"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find(" BENCH_PR2                5.00                 -"),
            std::string::npos)
      << rendered;
}

TEST(Report, BenchTrendAppendsThePeakRssSeriesWhenRecorded) {
  // Only the newest file records peak_rss_kb (the field arrived with the
  // PR 7 bench schema): the timing table is unchanged and the RSS table
  // shows "-" for the older file, skipping scenarios nobody measured.
  const BenchBaseline with_rss =
      parse_bench_baseline("{\n"
                           "  \"calibration_seconds\": 0.010,\n"
                           "  \"scenarios\": [\n"
                           "    { \"name\": \"smoke_a\", "
                           "\"seconds_per_run_min\": 0.012, "
                           "\"peak_rss_kb\": 10240 },\n"
                           "    { \"name\": \"grid_spill\", "
                           "\"seconds_per_run_min\": 0.500, "
                           "\"peak_rss_kb\": 39936 }\n"
                           "  ]\n"
                           "}\n",
                           "BENCH_PR7");
  const std::string expected =
      "  scenario  BENCH_PR2 (ms)  BENCH_PR7 (ms)  speedup\n"
      "---------------------------------------------------\n"
      "   smoke_a           20.00           12.00    1.67x\n"
      "grid_spill               -          500.00        -\n"
      "\n"
      "  scenario  BENCH_PR2 (peak MB)  BENCH_PR7 (peak MB)\n"
      "----------------------------------------------------\n"
      "   smoke_a                    -                 10.0\n"
      "grid_spill                    -                 39.0\n"
      "\n"
      "     file  compute probe (ms)  membw probe (ms)\n"
      "-----------------------------------------------\n"
      "BENCH_PR2                5.00                 -\n"
      "BENCH_PR7               10.00                 -\n";
  EXPECT_EQ(render_bench_trend({seed_baseline(), with_rss}), expected);
}

TEST(Report, BenchTrendSeedOnlyAndEmptyListsAreNotErrors) {
  // One file: values but no trend yet (the machine table still shows
  // its probe).
  const std::string seed_only =
      "scenario  BENCH_PR2 (ms)  speedup\n"
      "---------------------------------\n"
      " smoke_a           10.00        -\n"
      "\n"
      "     file  compute probe (ms)  membw probe (ms)\n"
      "-----------------------------------------------\n"
      "BENCH_PR2                5.00                 -\n";
  EXPECT_EQ(render_bench_trend({seed_baseline()}), seed_only);
  // No files at all: the header-only seed table, not a throw — the CLI
  // leans on this to keep `bench_trend` usable on a baseline-less clone.
  EXPECT_EQ(render_bench_trend({}),
            "scenario  speedup\n"
            "-----------------\n");
}

/// A temp copy of `text`, for the file-level loader tests.
std::filesystem::path temp_baseline(const std::string& tag,
                                    const std::string& text) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("coredis_report_test_" + tag + ".json");
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << text;
  return path;
}

std::string committed_baseline() {
  std::ifstream file(std::string(COREDIS_SOURCE_DIR) + "/BENCH_PR13.json",
                     std::ios::binary);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

TEST(Report, BenchBaselineLoaderReadsACommittedBaseline) {
  const auto path = temp_baseline("committed", committed_baseline());
  const BenchBaseline baseline = load_bench_baseline(path.string());
  EXPECT_EQ(baseline.label, "coredis_report_test_committed");
  EXPECT_GT(baseline.calibration, 0.0);
  EXPECT_GT(baseline.mem_calibration, 0.0);
  const BenchScenario* serve = baseline.find("serve_p99");
  ASSERT_NE(serve, nullptr);
  EXPECT_GT(serve->seconds_per_run_min, 0.0);
  EXPECT_EQ(serve->peak_rss_kb, 0.0);
  EXPECT_EQ(baseline.find("no_such_scenario"), nullptr);
  std::filesystem::remove(path);
}

TEST(Report, BenchBaselineLoaderRefusesATruncatedBaseline) {
  const std::string text = committed_baseline();
  ASSERT_GT(text.size(), 100u);
  const auto path = temp_baseline("truncated", text.substr(0, text.size() / 2));
  try {
    (void)load_bench_baseline(path.string());
    FAIL() << "a truncated baseline must not load";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
    EXPECT_NE(what.find(" at byte "), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(Report, BenchBaselineLoaderRefusesAFileThatIsNotJson) {
  for (const char* text : {"not json at all\n", "", "{\"calibration_seconds\": 1}",
                           "{\"scenarios\": [{\"runs\": 3}]}",
                           "{\"scenarios\": [{\"name\": \"a\", \"runs\": \"3\"}]}"}) {
    const auto path = temp_baseline("not_json", text);
    try {
      (void)load_bench_baseline(path.string());
      FAIL() << "must not load: " << text;
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(path.string() + ": "), std::string::npos) << what;
      EXPECT_NE(what.find(" at byte "), std::string::npos) << what;
    }
    std::filesystem::remove(path);
  }
  EXPECT_THROW((void)load_bench_baseline("/nonexistent/BENCH_x.json"),
               std::runtime_error);
}

TEST(Report, ExperimentsMarkdownGolden) {
  CheckReport pass;
  pass.figure = "fig07_impact_n";
  pass.title = "Figure 7";
  pass.command = "fig07_impact_n --runs 2";
  pass.checks = {{"gain grows", true, "n_max=0.55"}, {"IG beats STF", true, ""}};
  CheckReport fail;
  fail.figure = "fig08_impact_p";
  fail.title = "Figure 8";
  fail.command = "fig08_impact_p --runs 2";
  fail.checks = {{"gain shrinks", false, "worst=0.99"}};
  const std::string doc = render_experiments_markdown({pass, fail});

  // Stable: a pure function of its input.
  EXPECT_EQ(doc, render_experiments_markdown({pass, fail}));
  EXPECT_NE(doc.find("# EXPERIMENTS — reproduction status"),
            std::string::npos);
  EXPECT_NE(doc.find("Generated by tools/coredis_report"), std::string::npos);
  EXPECT_NE(doc.find("2 experiments, 1 fully passing.\n"), std::string::npos);
  EXPECT_NE(doc.find("| figure | experiment | command | checks | status |\n"),
            std::string::npos);
  EXPECT_NE(
      doc.find("| fig07_impact_n | Figure 7 | `fig07_impact_n --runs 2` | "
               "2/2 | PASS |\n"),
      std::string::npos);
  EXPECT_NE(
      doc.find("| fig08_impact_p | Figure 8 | `fig08_impact_p --runs 2` | "
               "0/1 | FAIL |\n"),
      std::string::npos);
  EXPECT_NE(doc.find("## fig07_impact_n — Figure 7\n"), std::string::npos);
  EXPECT_NE(doc.find("- [PASS] gain grows — n_max=0.55\n"), std::string::npos);
  EXPECT_NE(doc.find("- [PASS] IG beats STF\n"), std::string::npos);
  EXPECT_NE(doc.find("- [FAIL] gain shrinks — worst=0.99\n"),
            std::string::npos);
}

}  // namespace
}  // namespace coredis::exp
