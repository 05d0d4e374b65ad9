#include "exp/report.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/contracts.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/plot.hpp"
#include "util/table.hpp"

namespace coredis::exp {

namespace {

std::vector<std::string> header_row(const Sweep& sweep) {
  COREDIS_EXPECTS(!sweep.points.empty());
  std::vector<std::string> headers{sweep.x_label};
  for (const ConfigOutcome& config : sweep.points.front().configs)
    headers.push_back(config.name);
  return headers;
}

// Check records are line-oriented JSON. Like campaign cell records, a
// line is valid iff it parses (util/json) and re-renders to exactly its
// own bytes, so the writer below is the format's one definition.

struct CheckRecord {
  std::string figure;
  std::string title;
  std::string command;
  ShapeCheck check;
};

std::string check_record_line(const std::string& figure,
                              const std::string& title,
                              const std::string& command,
                              const ShapeCheck& check) {
  std::string line = "{\"figure\":\"";
  line += json::escape(figure);
  line += "\",\"title\":\"";
  line += json::escape(title);
  line += "\",\"command\":\"";
  line += json::escape(command);
  line += "\",\"check\":\"";
  line += json::escape(check.description);
  line += "\",\"pass\":";
  line += check.pass ? "true" : "false";
  line += ",\"detail\":\"";
  line += json::escape(check.detail);
  line += "\"}";
  return line;
}

bool parse_check_record(const std::string& line, CheckRecord& out) {
  try {
    json::Reader in(line);
    in.object([&](const std::string& key) {
      if (key == "figure") out.figure = in.string();
      else if (key == "title") out.title = in.string();
      else if (key == "command") out.command = in.string();
      else if (key == "check") out.check.description = in.string();
      else if (key == "pass") out.check.pass = in.boolean();
      else if (key == "detail") out.check.detail = in.string();
      else (void)in.skip();
    });
    in.finish();
  } catch (const json::Error&) {
    return false;
  }
  return check_record_line(out.figure, out.title, out.command, out.check) ==
         line;
}

}  // namespace

std::string render_normalized_table(const Sweep& sweep, int precision) {
  TextTable table(header_row(sweep));
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    std::vector<double> row;
    row.reserve(sweep.points[i].configs.size());
    for (const ConfigOutcome& config : sweep.points[i].configs)
      row.push_back(config.normalized.mean());
    table.add_row(sweep.x[i], row, precision);
  }
  return table.to_string();
}

std::string render_normalized_plot(const Sweep& sweep) {
  std::vector<PlotSeries> series;
  const std::size_t configs = sweep.points.front().configs.size();
  for (std::size_t c = 0; c < configs; ++c) {
    PlotSeries s;
    s.name = sweep.points.front().configs[c].name;
    for (const PointResult& point : sweep.points)
      s.y.push_back(point.configs[c].normalized.mean());
    series.push_back(std::move(s));
  }
  PlotOptions options;
  options.x_label = sweep.x_label;
  options.y_label = "normalized time";
  // Figures share the paper's 0.5..1.05 band unless the data escapes it.
  options.y_min = 0.45;
  options.y_max = 1.05;
  for (const PlotSeries& s : series)
    for (double v : s.y) {
      options.y_min = std::min(options.y_min, v - 0.02);
      options.y_max = std::max(options.y_max, v + 0.02);
    }
  return render_plot(sweep.x, series, options);
}

std::string render_makespan_table(const Sweep& sweep) {
  TextTable table(header_row(sweep));
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    std::vector<std::string> cells{format_double(sweep.x[i], 0)};
    for (const ConfigOutcome& config : sweep.points[i].configs) {
      std::ostringstream cell;
      cell.precision(6);
      cell << config.makespan.mean();
      cells.push_back(cell.str());
    }
    table.add_row(std::move(cells));
  }
  return table.to_string();
}

void save_sweep_csv(const Sweep& sweep, const std::string& path) {
  std::vector<std::string> headers{sweep.x_label};
  for (const ConfigOutcome& config : sweep.points.front().configs) {
    headers.push_back(config.name + " (normalized)");
    headers.push_back(config.name + " (ci95)");
    headers.push_back(config.name + " (makespan s)");
  }
  CsvWriter csv(std::move(headers));
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    std::vector<double> row{sweep.x[i]};
    for (const ConfigOutcome& config : sweep.points[i].configs) {
      row.push_back(config.normalized.mean());
      row.push_back(config.normalized.ci95_halfwidth());
      row.push_back(config.makespan.mean());
    }
    csv.add_row(row);
  }
  csv.save(path);
}

std::string render_checks(const std::vector<ShapeCheck>& checks) {
  std::ostringstream out;
  for (const ShapeCheck& check : checks) {
    out << (check.pass ? "[PASS] " : "[FAIL] ") << check.description;
    if (!check.detail.empty()) out << "  (" << check.detail << ")";
    out << '\n';
  }
  return out.str();
}

void append_check_records(const std::string& path, const CheckReport& report) {
  std::ofstream file(path, std::ios::binary | std::ios::app);
  if (!file) throw std::runtime_error("cannot append check records: " + path);
  for (const ShapeCheck& check : report.checks)
    file << check_record_line(report.figure, report.title, report.command,
                              check)
         << '\n';
  if (!file) throw std::runtime_error("failed writing check records: " + path);
}

std::vector<CheckReport> load_check_records(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open check records: " + path);
  std::vector<CheckReport> reports;
  std::string line;
  std::size_t number = 0;
  while (std::getline(file, line)) {
    ++number;
    if (line.empty()) continue;
    CheckRecord record;
    if (!parse_check_record(line, record))
      throw std::runtime_error("malformed check record at " + path + ":" +
                               std::to_string(number));
    const bool same_report =
        !reports.empty() && reports.back().figure == record.figure &&
        reports.back().title == record.title &&
        reports.back().command == record.command;
    if (!same_report)
      reports.push_back({record.figure, record.title, record.command, {}});
    reports.back().checks.push_back(std::move(record.check));
  }
  return reports;
}

std::string render_experiments_markdown(
    const std::vector<CheckReport>& reports) {
  std::ostringstream out;
  out << "# EXPERIMENTS — reproduction status\n"
         "\n"
         "<!-- Generated by tools/coredis_report. Do not edit by hand:\n"
         "     regenerate with tools/regen_experiments.sh (CI re-runs the\n"
         "     same pinned smoke grid and fails when this file drifts). -->\n"
         "\n"
         "Each figure/ablation driver streams its qualitative shape-check\n"
         "verdicts with `--checks <file>`; `coredis_report` folds them into\n"
         "this table. The verdicts below come from the pinned smoke grid\n"
         "(trimmed sweeps, `--runs 2`, seed 42) — deterministic for any\n"
         "thread count; pass `--full --runs 50` to the drivers for the\n"
         "paper-scale grids. See README.md (\"Reproduction status\") and\n"
         "DESIGN.md section 8 for the online-arrival workload.\n"
         "\n";
  std::size_t passed_reports = 0;
  for (const CheckReport& report : reports) {
    const bool all = std::all_of(report.checks.begin(), report.checks.end(),
                                 [](const ShapeCheck& c) { return c.pass; });
    passed_reports += all ? 1 : 0;
  }
  out << reports.size() << " experiments, " << passed_reports
      << " fully passing.\n\n";
  out << "| figure | experiment | command | checks | status |\n";
  out << "| --- | --- | --- | --- | --- |\n";
  for (const CheckReport& report : reports) {
    std::size_t passed = 0;
    for (const ShapeCheck& check : report.checks) passed += check.pass ? 1 : 0;
    out << "| " << report.figure << " | " << report.title << " | `"
        << report.command << "` | " << passed << "/" << report.checks.size()
        << " | " << (passed == report.checks.size() ? "PASS" : "FAIL")
        << " |\n";
  }
  for (const CheckReport& report : reports) {
    out << "\n## " << report.figure << " — " << report.title << "\n\n"
        << "`" << report.command << "`\n\n";
    for (const ShapeCheck& check : report.checks) {
      out << "- " << (check.pass ? "[PASS] " : "[FAIL] ")
          << check.description;
      if (!check.detail.empty()) out << " — " << check.detail;
      out << "\n";
    }
  }
  return out.str();
}

namespace {

BenchScenario read_bench_scenario(json::Reader& in) {
  BenchScenario s;
  in.object([&](const std::string& key) {
    if (key == "name") s.name = in.string();
    else if (key == "runs") s.runs = in.number();
    else if (key == "seconds_per_run") s.seconds_per_run = in.number();
    else if (key == "seconds_per_run_min") s.seconds_per_run_min = in.number();
    else if (key == "makespan_mean") s.makespan_mean = in.number();
    else if (key == "peak_rss_kb") s.peak_rss_kb = in.number();
    else (void)in.skip();
  });
  if (s.name.empty()) in.fail("scenario without a name");
  return s;
}

/// Every scenario name, in file order of first appearance.
std::vector<std::string> scenario_names(
    const std::vector<BenchBaseline>& files) {
  std::vector<std::string> names;
  for (const BenchBaseline& file : files)
    for (const BenchScenario& scenario : file.scenarios)
      if (std::find(names.begin(), names.end(), scenario.name) == names.end())
        names.push_back(scenario.name);
  return names;
}

std::string format_ms(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2f", seconds * 1e3);
  return buffer;
}

}  // namespace

const BenchScenario* BenchBaseline::find(std::string_view name) const {
  for (const BenchScenario& scenario : scenarios)
    if (scenario.name == name) return &scenario;
  return nullptr;
}

BenchBaseline parse_bench_baseline(std::string_view text, std::string label) {
  BenchBaseline baseline{std::move(label), 0.0, 0.0, {}};
  bool listed = false;
  json::Reader in(text);
  in.object([&](const std::string& key) {
    if (key == "calibration_seconds") baseline.calibration = in.number();
    else if (key == "calibration_mem_seconds")
      baseline.mem_calibration = in.number();
    else if (key != "scenarios") (void)in.skip();
    else if (listed) in.fail("duplicate \"scenarios\" array");
    else {
      listed = true;
      in.array([&] { baseline.scenarios.push_back(read_bench_scenario(in)); });
    }
  });
  in.finish();
  if (!listed) in.fail("no \"scenarios\" array");
  return baseline;
}

BenchBaseline load_bench_baseline(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << file.rdbuf();
  try {
    return parse_bench_baseline(text.str(),
                                std::filesystem::path(path).stem().string());
  } catch (const json::Error& failure) {
    throw std::runtime_error(path + ": " + failure.what());
  }
}

std::string render_bench_trend(const std::vector<BenchBaseline>& files) {
  // Normalize every file to the last file's machine speed: t * (cal_last
  // / cal_file) is what the run would have taken there, to first order.
  const double cal_ref = files.empty() ? 0.0 : files.back().calibration;

  std::vector<std::string> headers{"scenario"};
  for (const BenchBaseline& file : files)
    headers.push_back(file.label + " (ms)");
  headers.push_back("speedup");
  TextTable table(std::move(headers));
  for (const std::string& name : scenario_names(files)) {
    std::vector<std::string> row{name};
    double first = -1.0, last = -1.0;
    for (const BenchBaseline& file : files) {
      const BenchScenario* scenario = file.find(name);
      double value = scenario ? scenario->seconds_per_run_min : -1.0;
      if (value <= 0.0 && scenario)  // pre-min schema: fall back to the mean
        value = scenario->seconds_per_run;
      if (value <= 0.0) {
        row.push_back("-");
        continue;
      }
      if (file.calibration > 0.0 && cal_ref > 0.0)
        value *= cal_ref / file.calibration;
      if (first < 0.0) first = value;
      last = value;
      row.push_back(format_ms(value));
    }
    if (first > 0.0 && last > 0.0 && first != last) {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.2fx", first / last);
      row.push_back(buffer);
    } else {
      row.push_back("-");
    }
    table.add_row(row);
  }

  // Machine-probe table: the per-file calibration numbers behind the
  // normalization above. The memory-bandwidth column appeared in PR 10;
  // files without a probe show "-".
  std::string machine;
  bool any_probe = false;
  for (const BenchBaseline& file : files)
    any_probe |= file.calibration > 0.0 || file.mem_calibration > 0.0;
  if (any_probe) {
    TextTable probes({"file", "compute probe (ms)", "membw probe (ms)"});
    for (const BenchBaseline& file : files) {
      std::vector<std::string> row{file.label};
      row.push_back(file.calibration > 0.0 ? format_ms(file.calibration)
                                           : "-");
      row.push_back(file.mem_calibration > 0.0
                        ? format_ms(file.mem_calibration)
                        : "-");
      probes.add_row(row);
    }
    machine = "\n" + probes.to_string();
  }

  // Peak-RSS series, appended only when some baseline recorded it
  // (bench_json gained per-scenario `peak_rss_kb` in PR 7) — older
  // trajectories render the unchanged timing table. Memory is not
  // machine-speed, so no calibration normalization here.
  bool any_rss = false;
  for (const BenchBaseline& file : files)
    for (const BenchScenario& scenario : file.scenarios)
      any_rss |= scenario.peak_rss_kb >= 0.0;
  if (!any_rss) return table.to_string() + machine;

  std::vector<std::string> rss_headers{"scenario"};
  for (const BenchBaseline& file : files)
    rss_headers.push_back(file.label + " (peak MB)");
  TextTable rss_table(std::move(rss_headers));
  for (const std::string& name : scenario_names(files)) {
    std::vector<std::string> row{name};
    bool any = false;
    for (const BenchBaseline& file : files) {
      const BenchScenario* scenario = file.find(name);
      const double kb = scenario ? scenario->peak_rss_kb : -1.0;
      if (kb <= 0.0) {
        row.push_back("-");
        continue;
      }
      any = true;
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.1f", kb / 1024.0);
      row.push_back(buffer);
    }
    if (any) rss_table.add_row(row);
  }
  return table.to_string() + "\n" + rss_table.to_string() + machine;
}

double mean_normalized(const Sweep& sweep, std::size_t config) {
  RunningStats stats;
  for (const PointResult& point : sweep.points)
    stats.add(point.configs[config].normalized.mean());
  return stats.mean();
}

double normalized_at(const Sweep& sweep, std::size_t x_index,
                     std::size_t config) {
  return sweep.points[x_index].configs[config].normalized.mean();
}

}  // namespace coredis::exp
