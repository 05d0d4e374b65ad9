#include "exp/campaign.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "exp/cost_model.hpp"
#include "exp/scenario_file.hpp"
#include "exp/storage.hpp"
#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace coredis::exp {

namespace {

// --- campaign-file parsing ------------------------------------------------

using detail::lower;
using detail::trim;

[[noreturn]] void fail_line(std::size_t number, const std::string& raw,
                            const std::string& why) {
  throw std::runtime_error("campaign line " + std::to_string(number) + ": " +
                           why + " in '" + raw + "'");
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items;
  std::size_t start = 0;
  for (;;) {
    const auto comma = value.find(',', start);
    items.push_back(trim(comma == std::string::npos
                             ? value.substr(start)
                             : value.substr(start, comma - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

enum class AxisKey {
  None,
  N,
  P,
  Mtbf,
  FaultLaw,
  CheckpointCost,
  PeriodRule,
  ArrivalLaw,
  LoadFactor
};

AxisKey axis_of(const std::string& key) {
  if (key == "n") return AxisKey::N;
  if (key == "p") return AxisKey::P;
  if (key == "mtbf_years") return AxisKey::Mtbf;
  if (key == "fault_law") return AxisKey::FaultLaw;
  if (key == "checkpoint_unit_cost" || key == "c") return AxisKey::CheckpointCost;
  if (key == "period_rule") return AxisKey::PeriodRule;
  if (key == "arrival_law") return AxisKey::ArrivalLaw;
  if (key == "load_factor" || key == "load") return AxisKey::LoadFactor;
  return AxisKey::None;
}

void clear_axis(ScenarioGrid& grid, AxisKey axis) {
  switch (axis) {
    case AxisKey::N: grid.n.clear(); break;
    case AxisKey::P: grid.p.clear(); break;
    case AxisKey::Mtbf: grid.mtbf_years.clear(); break;
    case AxisKey::FaultLaw: grid.fault_laws.clear(); break;
    case AxisKey::CheckpointCost: grid.checkpoint_unit_costs.clear(); break;
    case AxisKey::PeriodRule: grid.period_rules.clear(); break;
    case AxisKey::ArrivalLaw: grid.arrival_laws.clear(); break;
    case AxisKey::LoadFactor: grid.load_factors.clear(); break;
    case AxisKey::None: break;
  }
}

/// Parse a sweep list by running every element through the single-value
/// scenario semantics (apply_scenario_key on a scratch copy), then reading
/// the field back — axes and scalars cannot drift apart.
void set_axis(ScenarioGrid& grid, AxisKey axis, const std::string& key,
              const std::string& value) {
  clear_axis(grid, axis);
  for (const std::string& element : split_list(value)) {
    if (element.empty()) throw std::runtime_error("empty element in list");
    Scenario scratch = grid.base;
    apply_scenario_key(scratch, key, element);
    switch (axis) {
      case AxisKey::N: grid.n.push_back(scratch.n); break;
      case AxisKey::P: grid.p.push_back(scratch.p); break;
      case AxisKey::Mtbf: grid.mtbf_years.push_back(scratch.mtbf_years); break;
      case AxisKey::FaultLaw:
        grid.fault_laws.push_back(scratch.fault_law);
        break;
      case AxisKey::CheckpointCost:
        grid.checkpoint_unit_costs.push_back(scratch.checkpoint_unit_cost);
        break;
      case AxisKey::PeriodRule:
        grid.period_rules.push_back(scratch.period_rule);
        break;
      case AxisKey::ArrivalLaw:
        grid.arrival_laws.push_back(scratch.arrival_law);
        break;
      case AxisKey::LoadFactor:
        grid.load_factors.push_back(scratch.load_factor);
        break;
      case AxisKey::None: break;
    }
  }
}

std::string format_g(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%g", value);
  return buffer;
}

// --- JSONL records --------------------------------------------------------
//
// The file is self-generated and line-oriented: one header record, then
// one record per cell, committed strictly in cell order. Doubles use
// "%.17g" (json::format_number) so parsing a record reproduces the exact
// bits that were simulated — a resumed campaign aggregates to the same
// statistics as an uninterrupted one.

std::uint64_t fingerprint_mix(std::uint64_t hash, const std::string& text) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  hash ^= 0xFFU;  // separator so adjacent strings cannot alias
  hash *= 1099511628211ULL;
  return hash;
}

std::uint64_t grid_fingerprint(const std::vector<Scenario>& points,
                               const std::vector<ConfigSpec>& configs) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const Scenario& point : points)
    hash = fingerprint_mix(hash, format_scenario(point));
  for (const ConfigSpec& config : configs)
    hash = fingerprint_mix(hash, config.name);
  return hash;
}

std::size_t total_cells(const std::vector<Scenario>& points) {
  std::size_t cells = 0;
  for (const Scenario& point : points)
    cells += static_cast<std::size_t>(point.runs);
  return cells;
}

std::string fingerprint_hex(const std::vector<Scenario>& points,
                            const std::vector<ConfigSpec>& configs) {
  char fingerprint[24];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(
                    grid_fingerprint(points, configs)));
  return fingerprint;
}

void append_config_names(std::ostringstream& out,
                         const std::vector<ConfigSpec>& configs) {
  out << "\"configs\":[";
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (c != 0) out << ',';
    out << '"' << json::escape(configs[c].name) << '"';
  }
  out << "]}";
}

std::string header_line(const std::vector<Scenario>& points,
                        const std::vector<ConfigSpec>& configs) {
  std::ostringstream out;
  out << "{\"coredis_campaign\":1,\"fingerprint\":\""
      << fingerprint_hex(points, configs)
      << "\",\"points\":" << points.size()
      << ",\"cells\":" << total_cells(points) << ",";
  append_config_names(out, configs);
  return out.str();
}

/// A shard file's header: deliberately a different record shape from the
/// final artifact's, so neither can be taken for the other, carrying the
/// grid fingerprint and the worker's identity but no cell range — a
/// worker's cells are whatever blocks it ran.
std::string deal_header_line(const std::vector<Scenario>& points,
                             const std::vector<ConfigSpec>& configs,
                             std::size_t worker, std::size_t workers) {
  std::ostringstream out;
  out << "{\"coredis_campaign_deal\":1,\"fingerprint\":\""
      << fingerprint_hex(points, configs) << "\",\"worker\":" << worker
      << ",\"workers\":" << workers << ",\"cells\":" << total_cells(points)
      << ",";
  append_config_names(out, configs);
  return out.str();
}

/// Render one cell record into `line` (cleared first). The buffer is the
/// caller's — the grid runner hands each worker a reusable thread-local
/// string, so streaming a campaign allocates no per-cell stringstream.
void cell_line(std::size_t cell, std::size_t point, std::size_t rep,
               const CellResult& result,
               const std::vector<ConfigSpec>& configs, std::string& line) {
  line.clear();
  line += "{\"cell\":";
  line += std::to_string(cell);
  line += ",\"point\":";
  line += std::to_string(point);
  line += ",\"rep\":";
  line += std::to_string(rep);
  line += ",\"baseline\":";
  line += json::format_number(result.baseline);
  line += ",\"configs\":";
  append_config_results(line, configs, result);
  line += '}';
}

// A record is valid iff it parses (util/json) and re-renders to exactly
// its own bytes: the writer above is the format's one definition, so
// reordered, missing or extra fields, a foreign number spelling, a
// config name out of place or a makespan that no longer matches its
// normalized value all mark the record corrupt.

struct ParsedCell {
  std::size_t cell = 0;
  std::size_t point = 0;
  std::size_t rep = 0;
  CellResult result;
};

bool parse_cell_line(const std::string& line,
                     const std::vector<ConfigSpec>& configs,
                     ParsedCell& out) {
  constexpr std::uint64_t kMaxCount = std::numeric_limits<int>::max();
  out.result.results.assign(configs.size(), core::RunResult{});
  std::string rendered;
  try {
    json::Reader in(line);
    std::size_t c = 0;
    in.object([&](const std::string& key) {
      if (key == "cell") out.cell = in.u64();
      else if (key == "point") out.point = in.u64();
      else if (key == "rep") out.rep = in.u64();
      else if (key == "baseline") out.result.baseline = in.number();
      else if (key != "configs") (void)in.skip();
      else in.array([&] {
        if (c == configs.size()) in.fail("too many configurations");
        core::RunResult& r = out.result.results[c++];
        in.object([&](const std::string& field) {
          if (field == "makespan") r.makespan = in.number();
          else if (field == "redistributions")
            r.redistributions = static_cast<int>(in.u64(kMaxCount));
          else if (field == "effective_faults")
            r.faults_effective = static_cast<int>(in.u64(kMaxCount));
          else (void)in.skip();  // name, normalized: the re-render checks them
        });
      });
    });
    in.finish();
    cell_line(out.cell, out.point, out.rep, out.result, configs, rendered);
  } catch (const json::Error&) {
    return false;
  } catch (const std::invalid_argument&) {  // a non-finite re-render
    return false;
  }
  return rendered == line;
}

// --- the in-order committer and the resume scan ---------------------------

/// Serializes out-of-order cell completions into in-cell-order
/// retirement: append the record to the JSONL sink (when streaming) and
/// fold the cell into the per-point aggregates. A cell that arrives
/// early is handed to the ResultSpill as its *serialized record*, not
/// kept as a live CellResult — the backlog costs its bytes (or, with the
/// file backend, at most the spill's RAM budget). Retiring a spilled
/// cell re-parses the record, which reproduces the simulated bits
/// exactly ("%.17g" round-trip), so the fold is bit-identical whichever
/// path a cell took.
class OrderedCommitter {
 public:
  using Fold = std::function<void(std::size_t, const CellResult&)>;

  OrderedCommitter(std::ofstream* sink, std::size_t next, ResultSpill& spill,
                   const std::vector<ConfigSpec>& configs, Fold fold)
      : sink_(sink),
        next_(next),
        spill_(spill),
        configs_(configs),
        fold_(std::move(fold)) {}

  void commit(std::size_t index, const CellResult& result,
              const std::string& line) {
    const std::lock_guard lock(mutex_);
    if (index != next_) {
      spill_.put(index, line);
      return;
    }
    retire(line, result);
    std::string spilled;
    ParsedCell cell;
    while (spill_.take(next_, spilled)) {
      if (!parse_cell_line(spilled, configs_, cell))
        throw std::runtime_error(
            "internal: spilled campaign record failed to re-parse");
      retire(spilled, cell.result);
    }
  }

  [[nodiscard]] bool drained() const { return spill_.pending() == 0; }

 private:
  void retire(const std::string& line, const CellResult& result) {
    if (sink_ != nullptr) {
      *sink_ << line << '\n';
      sink_->flush();
    }
    if (fold_) fold_(next_, result);
    ++next_;
  }

  std::ofstream* sink_;
  std::size_t next_;
  ResultSpill& spill_;
  const std::vector<ConfigSpec>& configs_;
  Fold fold_;
  std::mutex mutex_;
};

std::vector<std::size_t> runs_per_point(const std::vector<Scenario>& points) {
  std::vector<std::size_t> runs;
  runs.reserve(points.size());
  for (const Scenario& point : points)
    runs.push_back(static_cast<std::size_t>(point.runs));
  return runs;
}

std::vector<PointResult> point_frames(const std::vector<Scenario>& points,
                                      const std::vector<ConfigSpec>& configs) {
  std::vector<PointResult> frames;
  frames.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    frames.push_back(make_point_frame(configs));
  return frames;
}

struct JsonlScan {
  std::size_t cells_present = 0;   ///< valid records (duplicates count)
  std::uintmax_t valid_bytes = 0;  ///< header + accepted records, with '\n'
  bool dropped_tail = false;       ///< a torn trailing record existed
};

/// Called once per valid record with the parsed cell, the byte offset of
/// its line in the file and the raw line (without '\n').
using RecordSink =
    std::function<void(ParsedCell&&, std::uintmax_t, const std::string&)>;

/// The one line loop behind resume, summarize and merge: validate the
/// header of `path`, then hand every valid record to `on_record`.
/// Streamed line by line, so the scan holds one line at a time. After a
/// successful getline, eof() set means the line had no trailing '\n' — a
/// record torn mid-write, always dropped as the tail.
///
/// `in_order` selects the file's contract. The single-process artifact
/// (true) holds global cells 0, 1, 2, ... in order and nothing beyond the
/// grid; a corrupt last line is dropped even when newline-terminated (the
/// resume contract of DESIGN.md section 7.3). A shard file (false) holds
/// any cells in completion order, duplicates allowed, and only crashes
/// tear lines — so a complete invalid line anywhere is corruption.
JsonlScan scan_jsonl(const std::string& path, const std::string& header,
                     const CellQueue& layout,
                     const std::vector<ConfigSpec>& configs, bool in_order,
                     const RecordSink& on_record) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open campaign results: " + path);

  JsonlScan scan;
  std::string line;
  if (!std::getline(file, line)) return scan;  // empty file: fresh start
  if (file.eof()) {                            // torn header: rewrite it
    scan.dropped_tail = true;
    return scan;
  }
  if (line != header)
    throw std::runtime_error(
        "file does not match this campaign (header/fingerprint mismatch): " +
        path);
  scan.valid_bytes = line.size() + 1;

  while (std::getline(file, line)) {
    if (in_order && scan.cells_present == layout.size())
      throw std::runtime_error("trailing data beyond the campaign grid: " +
                               path);
    if (file.eof()) {
      scan.dropped_tail = true;
      break;
    }
    ParsedCell cell;
    const bool valid =
        parse_cell_line(line, configs, cell) && cell.cell < layout.size() &&
        (!in_order || cell.cell == scan.cells_present) &&
        cell.point == layout.at(cell.cell).point &&
        cell.rep == layout.at(cell.cell).rep;
    if (!valid) {
      if (!in_order ||
          file.peek() != std::ifstream::traits_type::eof())
        throw std::runtime_error("corrupt campaign record on line " +
                                 std::to_string(scan.cells_present + 2) +
                                 ": " + path);
      scan.dropped_tail = true;
      break;
    }
    if (on_record) on_record(std::move(cell), scan.valid_bytes, line);
    ++scan.cells_present;
    scan.valid_bytes += line.size() + 1;
  }
  return scan;
}

/// Open `path` for appending records under `header`. With resume and an
/// existing file, `adopt` scans its valid prefix first and the torn tail
/// is cut, so appends continue a clean prefix; otherwise (or when not
/// even the header survived) the file starts over with the header.
JsonlScan open_record_sink(std::ofstream& sink, const std::string& path,
                           const std::string& header, bool resume,
                           const std::function<JsonlScan()>& adopt) {
  namespace fs = std::filesystem;
  JsonlScan scan;
  if (resume && fs::exists(path)) {
    scan = adopt();
    if (fs::file_size(path) > scan.valid_bytes)
      fs::resize_file(path, scan.valid_bytes);
  }
  sink.open(path, scan.valid_bytes > 0 ? std::ios::binary | std::ios::app
                                       : std::ios::binary | std::ios::trunc);
  if (!sink) throw std::runtime_error("cannot write " + path);
  if (scan.valid_bytes == 0) {
    sink << header << '\n';
    sink.flush();
  }
  return scan;
}

/// Execution core shared by run_grid and DealWorker: compute global
/// cells [first, first + count), appending each record to `sink` (null:
/// in-memory only) and retiring cells in index order through `fold`.
/// Cost-guided LPT feed (DESIGN.md sections 12.1 and 12.2): the worker
/// pool's shared counter hands out the predicted-longest remaining cells
/// first and every completed cell's wall-clock is timed back into the
/// model. The permutation only decides who computes what when — the
/// committer still retires cells in index order, so the ordering cannot
/// reach one output byte. LPT does grow the committer's out-of-order
/// backlog (cheap cells finish long before the expensive low-index ones
/// retire); that backlog is exactly what the spill backend bounds.
void execute_span(const std::vector<Scenario>& points,
                  const std::vector<ConfigSpec>& configs,
                  const CellQueue& queue, std::size_t first, std::size_t count,
                  std::ofstream* sink, const GridRunOptions& options,
                  const OrderedCommitter::Fold& fold) {
  const std::unique_ptr<ResultSpill> spill = make_result_spill(
      options.storage, options.storage_dir, options.spill_ram_budget_bytes);
  OrderedCommitter committer(sink, first, *spill, configs, fold);
  if (count > 0) {
    std::unique_ptr<CostModel> own_model;
    CostModel* model = options.cost_model;
    if (model == nullptr) {
      own_model = std::make_unique<CostModel>(points, configs);
      model = own_model.get();
    }
    const std::vector<std::size_t> order =
        lpt_cell_order(*model, queue, first, count);
    parallel_for(
        count,
        [&](std::size_t index) {
          const std::size_t k = first + order[index];
          const CellRef ref = queue.at(k);
          const auto start = std::chrono::steady_clock::now();
          const CellResult result =
              run_cell(points[ref.point], configs, ref.rep);
          model->observe(
              ref.point,
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count());
          // Per-worker reusable line buffer (the committer copies only
          // what it must spill).
          thread_local std::string line;
          cell_line(k, ref.point, ref.rep, result, configs, line);
          committer.commit(k, result, line);
        },
        options.threads);
  }
  COREDIS_EXPECTS(committer.drained());
}

}  // namespace

// --- ScenarioGrid ---------------------------------------------------------

std::size_t ScenarioGrid::points() const noexcept {
  const auto dim = [](std::size_t size) {
    return size == 0 ? std::size_t{1} : size;
  };
  return dim(n.size()) * dim(p.size()) * dim(mtbf_years.size()) *
         dim(fault_laws.size()) * dim(checkpoint_unit_costs.size()) *
         dim(period_rules.size()) * dim(arrival_laws.size()) *
         dim(load_factors.size());
}

Scenario ScenarioGrid::point(std::size_t index) const {
  COREDIS_EXPECTS(index < points());
  Scenario scenario = base;
  std::size_t rest = index;
  const auto take = [&rest](std::size_t size) {
    const std::size_t k = rest % size;
    rest /= size;
    return k;
  };
  // The innermost axis decodes first, making n the outermost loop.
  if (!load_factors.empty())
    scenario.load_factor = load_factors[take(load_factors.size())];
  if (!arrival_laws.empty())
    scenario.arrival_law = arrival_laws[take(arrival_laws.size())];
  if (!period_rules.empty())
    scenario.period_rule = period_rules[take(period_rules.size())];
  if (!checkpoint_unit_costs.empty())
    scenario.checkpoint_unit_cost =
        checkpoint_unit_costs[take(checkpoint_unit_costs.size())];
  if (!fault_laws.empty())
    scenario.fault_law = fault_laws[take(fault_laws.size())];
  if (!mtbf_years.empty())
    scenario.mtbf_years = mtbf_years[take(mtbf_years.size())];
  if (!p.empty()) scenario.p = p[take(p.size())];
  if (!n.empty()) scenario.n = n[take(n.size())];
  return scenario;
}

std::string ScenarioGrid::point_label(std::size_t index) const {
  const Scenario scenario = point(index);
  std::string label;
  const auto add = [&label](const std::string& piece) {
    if (!label.empty()) label += ' ';
    label += piece;
  };
  if (!n.empty()) add("n=" + std::to_string(scenario.n));
  if (!p.empty()) add("p=" + std::to_string(scenario.p));
  if (!mtbf_years.empty())
    add("mtbf_years=" + format_g(scenario.mtbf_years));
  if (!fault_laws.empty())
    add(std::string("fault_law=") +
        (scenario.fault_law == FaultLaw::Weibull ? "weibull" : "exponential"));
  if (!checkpoint_unit_costs.empty())
    add("checkpoint_unit_cost=" + format_g(scenario.checkpoint_unit_cost));
  if (!period_rules.empty())
    add(std::string("period_rule=") +
        (scenario.period_rule == checkpoint::PeriodRule::Daly ? "daly"
                                                              : "young"));
  if (!arrival_laws.empty())
    add("arrival_law=" + extensions::to_string(scenario.arrival_law));
  if (!load_factors.empty())
    add("load_factor=" + format_g(scenario.load_factor));
  return label.empty() ? "base" : label;
}

std::size_t Campaign::cells() const noexcept {
  return grid.points() * static_cast<std::size_t>(grid.base.runs);
}

// --- campaign parsing -----------------------------------------------------

Campaign parse_campaign(const std::string& text, Scenario base) {
  Campaign campaign;
  campaign.grid.base = base;
  campaign.configs = paper_curves();

  std::istringstream stream(text);
  std::string raw;
  std::size_t number = 0;
  while (std::getline(stream, raw)) {
    ++number;
    try {
      std::string key;
      std::string value;
      if (!detail::split_assignment(raw, key, value)) continue;
      if (key == "configs" || key == "policy" || key == "policies") {
        campaign.configs = parse_config_set(value);
        continue;
      }
      const AxisKey axis = axis_of(key);
      if (value.find(',') != std::string::npos) {
        if (axis == AxisKey::None) {
          // Distinguish a typo from a real scenario key that simply
          // cannot be swept: probe the key with the first list element.
          Scenario probe = campaign.grid.base;
          bool known = true;
          try {
            known = apply_scenario_key(probe, key, split_list(value).front());
          } catch (const std::runtime_error&) {
            // Malformed element, but the key itself exists.
          }
          if (!known) throw std::runtime_error("unknown key '" + key + "'");
          throw std::runtime_error(
              "key '" + key +
              "' cannot be swept (axes: n, p, mtbf_years, fault_law, "
              "checkpoint_unit_cost, period_rule, arrival_law, "
              "load_factor)");
        }
        set_axis(campaign.grid, axis, key, value);
      } else {
        if (!apply_scenario_key(campaign.grid.base, key, value))
          throw std::runtime_error("unknown key '" + key + "'");
        // A later scalar assignment overrides an earlier sweep of the key.
        clear_axis(campaign.grid, axis);
      }
    } catch (const std::runtime_error& error) {
      fail_line(number, raw, error.what());
    }
  }

  const std::size_t total = campaign.grid.points();
  for (std::size_t i = 0; i < total; ++i) {
    try {
      validate_scenario(campaign.grid.point(i));
    } catch (const std::runtime_error& error) {
      throw std::runtime_error("campaign: point [" +
                               campaign.grid.point_label(i) +
                               "]: " + error.what());
    }
  }
  return campaign;
}

Campaign load_campaign(const std::string& path, Scenario base) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open campaign file: " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return parse_campaign(text.str(), std::move(base));
}

// --- orchestration --------------------------------------------------------

std::vector<PointResult> run_grid(const std::vector<Scenario>& points,
                                  const std::vector<ConfigSpec>& configs,
                                  const GridRunOptions& options) {
  const CellQueue queue(runs_per_point(points));
  // Aggregates build incrementally as the committer retires cells in
  // order — the run holds O(points) statistics, never O(cells) results.
  std::vector<PointResult> aggregated = point_frames(points, configs);
  const OrderedCommitter::Fold fold =
      [&aggregated, &queue](std::size_t k, const CellResult& result) {
        fold_cell(aggregated[queue.at(k).point], result);
      };
  // With resume, the file's valid prefix is adopted (folded, not
  // recomputed) and only the cells after it run.
  std::size_t done = 0;
  std::ofstream sink;
  const std::string& path = options.jsonl_path;
  if (!path.empty()) {
    const std::string header = header_line(points, configs);
    done = open_record_sink(sink, path, header, options.resume, [&] {
             return scan_jsonl(path, header, queue, configs, true,
                               [&fold](ParsedCell&& cell, std::uintmax_t,
                                       const std::string&) {
                                 fold(cell.cell, cell.result);
                               });
           }).cells_present;
  }
  execute_span(points, configs, queue, done, queue.size() - done,
               sink.is_open() ? &sink : nullptr, options, fold);
  if (sink.is_open() && !sink)
    throw std::runtime_error("failed writing " + path);
  return aggregated;
}

std::vector<PointResult> run_campaign(const Campaign& campaign,
                                      const GridRunOptions& options) {
  return run_grid(campaign_points(campaign), campaign.configs, options);
}

// --- the shard fabric -----------------------------------------------------

ShardSpec parse_shard_spec(const std::string& text) {
  ShardSpec shard;
  const auto whole = [](std::string_view digits, std::size_t& out) {
    const char* end = digits.data() + digits.size();
    const auto [stop, error] = std::from_chars(digits.data(), end, out);
    return error == std::errc() && stop == end;
  };
  const std::string_view spec = text;
  const std::size_t slash = spec.find('/');
  const bool ok = slash != std::string_view::npos &&
                  whole(spec.substr(0, slash), shard.index) &&
                  whole(spec.substr(slash + 1), shard.count);
  if (!ok)
    throw std::runtime_error(
        "shard spec must be <index>/<count>, e.g. 1/4 (got '" + text + "')");
  if (shard.count == 0 || shard.index >= shard.count)
    throw std::runtime_error("shard index " + std::to_string(shard.index) +
                             " out of range for " +
                             std::to_string(shard.count) + " workers");
  return shard;
}

std::pair<std::size_t, std::size_t> shard_range(std::size_t total_cells,
                                                const ShardSpec& shard) {
  COREDIS_EXPECTS(shard.count > 0 && shard.index < shard.count);
  // Balanced contiguous ranges: sizes differ by at most one and the
  // W ranges tile [0, total) exactly, whatever total % count is.
  return {total_cells * shard.index / shard.count,
          total_cells * (shard.index + 1) / shard.count};
}

std::string shard_path(const std::string& jsonl_path, const ShardSpec& shard) {
  std::filesystem::path path(jsonl_path);
  const std::string extension = path.extension().string();
  path.replace_extension();
  path += ".shard" + std::to_string(shard.index) + "of" +
          std::to_string(shard.count) + extension;
  return path.string();
}

std::vector<Scenario> campaign_points(const Campaign& campaign) {
  std::vector<Scenario> points;
  const std::size_t total = campaign.grid.points();
  points.reserve(total);
  for (std::size_t i = 0; i < total; ++i)
    points.push_back(campaign.grid.point(i));
  return points;
}

// --- dynamic dealing ------------------------------------------------------

std::vector<DealBlock> plan_deal_blocks(const CostModel& model,
                                        const CellQueue& queue,
                                        std::size_t workers) {
  COREDIS_EXPECTS(workers > 0);
  std::vector<DealBlock> blocks;
  const std::size_t total = queue.size();
  if (total == 0) return blocks;
  std::vector<double> by_point(model.points());
  for (std::size_t p = 0; p < by_point.size(); ++p)
    by_point[p] = model.predict(p);
  const auto cell_cost = [&](std::size_t k) {
    return by_point[queue.at(k).point];
  };
  double total_cost = 0.0;
  for (std::size_t k = 0; k < total; ++k) total_cost += cell_cost(k);
  // ~8 blocks per worker: granular enough that the last block dealt is
  // a small fraction of a worker's share (the makespan tail), coarse
  // enough that per-block protocol and header overhead stays noise.
  const double target = total_cost / static_cast<double>(workers * 8);
  std::vector<double> costs;  // parallel to blocks, for the LPT sort
  DealBlock open{0, 0};
  double accumulated = 0.0;
  for (std::size_t k = 0; k < total; ++k) {
    accumulated += cell_cost(k);
    open.end = k + 1;
    // Cut as soon as the open block reached the target; one cell above
    // it at most (a cell cannot split).
    if (accumulated >= target || k + 1 == total) {
      blocks.push_back(open);
      costs.push_back(accumulated);
      open.begin = k + 1;
      accumulated = 0.0;
    }
  }
  std::vector<std::size_t> order(blocks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&costs](std::size_t a, std::size_t b) {
                     return costs[a] > costs[b];
                   });
  std::vector<DealBlock> lpt;
  lpt.reserve(blocks.size());
  for (const std::size_t i : order) lpt.push_back(blocks[i]);
  return lpt;
}

DealWorker::DealWorker(std::vector<Scenario> points,
                       std::vector<ConfigSpec> configs, std::size_t worker,
                       std::size_t workers, const GridRunOptions& options)
    : points_(std::move(points)),
      configs_(std::move(configs)),
      options_(options),
      queue_(runs_per_point(points_)) {
  COREDIS_EXPECTS(workers > 0 && worker < workers);
  if (options_.jsonl_path.empty())
    throw std::runtime_error(
        "shard workers need a JSONL output path to derive their shard file");
  if (options_.cost_model == nullptr) {
    model_ = std::make_unique<CostModel>(points_, configs_);
    options_.cost_model = model_.get();
  }
  held_.assign(queue_.size(), false);
  path_ = shard_path(options_.jsonl_path, {worker, workers});
  const std::string header =
      deal_header_line(points_, configs_, worker, workers);
  resumed_records_ =
      open_record_sink(sink_, path_, header, options_.resume, [&] {
        return scan_jsonl(path_, header, queue_, configs_, false,
                          [this](ParsedCell&& cell, std::uintmax_t,
                                 const std::string&) {
                            held_[cell.cell] = true;
                          });
      }).cells_present;
}

DealWorker::~DealWorker() = default;

std::size_t DealWorker::resumed_records() const noexcept {
  return resumed_records_;
}

void DealWorker::run_block(std::size_t begin, std::size_t end) {
  COREDIS_EXPECTS(begin <= end && end <= queue_.size());
  // Only the runs of cells the file does not hold yet execute.
  for (std::size_t k = begin; k < end;) {
    if (held_[k]) {
      ++k;
      continue;
    }
    const std::size_t first = k;
    while (k < end && !held_[k]) held_[k++] = true;
    execute_span(points_, configs_, queue_, first, k - first, &sink_,
                 options_, {});
  }
  if (!sink_) throw std::runtime_error("failed writing " + path_);
}

namespace {

/// Where a cell's first valid record lives among the shard files.
struct RecordLocation {
  std::size_t shard = 0;
  std::uintmax_t offset = 0;
  std::size_t length = 0;
  bool present = false;
};

struct ShardIndex {
  std::vector<RecordLocation> cells;
  std::size_t missing = 0;
  std::vector<std::string> torn;  ///< shard files with a dropped torn tail
};

/// Index every cell's first occurrence — (shard, offset, length) —
/// across the `workers` shard files of jsonl_path. Re-dealt blocks
/// appear in more than one file; cells are deterministic in (point
/// seed, rep), so every duplicate is byte-identical and keeping the
/// first is safe. `require_files` refuses a missing file (the merge);
/// otherwise it simply holds no cells (a resuming coordinator).
ShardIndex index_shards(const std::vector<Scenario>& points,
                        const std::vector<ConfigSpec>& configs,
                        const CellQueue& queue, std::size_t workers,
                        const std::string& jsonl_path, bool require_files) {
  if (workers == 0) throw std::runtime_error("merge needs at least one shard");
  ShardIndex index;
  index.cells.resize(queue.size());
  index.missing = queue.size();
  for (std::size_t k = 0; k < workers; ++k) {
    const std::string path = shard_path(jsonl_path, {k, workers});
    if (!std::filesystem::exists(path)) {
      if (!require_files) continue;
      const std::string spec =
          std::to_string(k) + "/" + std::to_string(workers);
      throw std::runtime_error(
          "missing shard file " + path + ": every worker writes one, even if "
          "it computed nothing — run --worker " + spec +
          " (or the --workers coordinator) before merging");
    }
    const JsonlScan scan = scan_jsonl(
        path, deal_header_line(points, configs, k, workers), queue, configs,
        false,
        [&index, k](ParsedCell&& cell, std::uintmax_t offset,
                    const std::string& line) {
          RecordLocation& slot = index.cells[cell.cell];
          if (slot.present) return;  // duplicate: keep the first
          slot = {k, offset, line.size(), true};
          --index.missing;
        });
    if (scan.dropped_tail) index.torn.push_back(path);
  }
  return index;
}

}  // namespace

std::vector<bool> shard_coverage(const std::vector<Scenario>& points,
                                 const std::vector<ConfigSpec>& configs,
                                 std::size_t workers,
                                 const std::string& jsonl_path) {
  const CellQueue queue(runs_per_point(points));
  const ShardIndex index =
      index_shards(points, configs, queue, workers, jsonl_path, false);
  std::vector<bool> held(index.cells.size());
  for (std::size_t k = 0; k < held.size(); ++k)
    held[k] = index.cells[k].present;
  return held;
}

void merge_deal_shards(const std::vector<Scenario>& points,
                       const std::vector<ConfigSpec>& configs,
                       std::size_t workers, const std::string& jsonl_path) {
  namespace fs = std::filesystem;
  const CellQueue queue(runs_per_point(points));
  const ShardIndex index =
      index_shards(points, configs, queue, workers, jsonl_path, true);
  if (index.missing != 0) {
    std::size_t first_missing = 0;
    while (index.cells[first_missing].present) ++first_missing;
    std::string torn;
    for (const std::string& path : index.torn)
      torn += (torn.empty() ? "; torn tail dropped in " : ", ") + path;
    throw std::runtime_error(
        "campaign shards are incomplete: " + std::to_string(index.missing) +
        " of " + std::to_string(queue.size()) +
        " cells missing (first: cell " + std::to_string(first_missing) +
        torn +
        "); rerun the workers with --resume to compute the missing cells");
  }

  // Crash-atomic publication (DESIGN.md section 7.4): the merged artifact
  // is final — unlike shard files it has no resume story — so it is
  // assembled in a temp sibling and renamed over jsonl_path only after a
  // flush + fsync. A crash (even kill -9) mid-merge leaves the final
  // name untouched; the fixed temp name is self-cleaning — the next
  // merge truncates the same sibling. The bytes are the single-process
  // header, then every cell's record in global cell order.
  std::vector<std::ifstream> shards(workers);
  for (std::size_t k = 0; k < workers; ++k) {
    const std::string path = shard_path(jsonl_path, {k, workers});
    shards[k].open(path, std::ios::binary);
    if (!shards[k])
      throw std::runtime_error("cannot reopen shard file " + path);
  }
  const std::string temp_path = atomic_temp_path(jsonl_path);
  std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + temp_path);
  try {
    out << header_line(points, configs) << '\n';
    std::string record;
    for (const RecordLocation& slot : index.cells) {
      record.resize(slot.length);
      std::ifstream& shard = shards[slot.shard];
      shard.seekg(static_cast<std::streamoff>(slot.offset));
      shard.read(record.data(), static_cast<std::streamsize>(slot.length));
      if (!shard)
        throw std::runtime_error("shard file changed under the merge: " +
                                 shard_path(jsonl_path, {slot.shard, workers}));
      out << record << '\n';
    }
    out.flush();
    if (!out) throw std::runtime_error("failed writing " + temp_path);
    out.close();
    commit_file(temp_path, jsonl_path);
  } catch (...) {
    // Never leave a half-merged temp behind a loud refusal; the final
    // path was not touched.
    out.close();
    std::error_code ignored;
    fs::remove(temp_path, ignored);
    throw;
  }
}

std::vector<PointResult> summarize_jsonl(const Campaign& campaign,
                                         const std::string& path,
                                         JsonlCoverage* coverage) {
  const std::vector<Scenario> points = campaign_points(campaign);
  const CellQueue queue(runs_per_point(points));
  std::vector<PointResult> aggregated = point_frames(points, campaign.configs);
  const JsonlScan scan = scan_jsonl(
      path, header_line(points, campaign.configs), queue, campaign.configs,
      true,
      [&aggregated](ParsedCell&& cell, std::uintmax_t, const std::string&) {
        fold_cell(aggregated[cell.point], cell.result);
      });
  if (coverage != nullptr) {
    coverage->cells_present = scan.cells_present;
    coverage->cells_total = queue.size();
    coverage->dropped_corrupt_tail = scan.dropped_tail;
  }
  return aggregated;
}

std::string render_campaign_table(const Campaign& campaign,
                                  const std::vector<PointResult>& points) {
  std::vector<std::string> headers{"point", "reps", "baseline (days)"};
  for (const ConfigSpec& config : campaign.configs)
    headers.push_back(config.name);
  TextTable table(std::move(headers));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& point = points[i];
    std::vector<std::string> row;
    row.push_back(campaign.grid.point_label(i));
    row.push_back(std::to_string(point.baseline_makespan.count()));
    if (point.baseline_makespan.count() == 0) {
      row.push_back("-");
      for (std::size_t c = 0; c < campaign.configs.size(); ++c)
        row.push_back("-");
    } else {
      row.push_back(format_double(
          units::to_days(point.baseline_makespan.mean()), 1));
      for (const ConfigOutcome& config : point.configs)
        row.push_back(format_double(config.normalized.mean(), 4));
    }
    table.add_row(row);
  }
  return table.to_string();
}

}  // namespace coredis::exp
