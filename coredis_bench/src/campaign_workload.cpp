/// \file campaign_workload.cpp
/// The campaign workloads, cold_hetero and wide_faulty: a campaign grid
/// run through the `coredis_campaign --workers 2 --threads 1`
/// coordinator (dynamic block dealing, then the byte-identical merge),
/// checked cell by cell against an in-process exp::run_campaign
/// reference of the same campaign and seed.

#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exp/campaign.hpp"
#include "exp/cost_model.hpp"
#include "layers.hpp"

namespace coredis_bench {

namespace exp = coredis::exp;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr int kSetupRepeats = 101;
constexpr int kMinCampaigns = 3;
/// Both campaigns' configuration selector (campaign and request grammar).
constexpr const char* kConfigs = "baseline,stf_local,ig_local";

/// The campaign text of a workload: a fixed grid, seeded by `seed`.
std::string campaign_text(const std::string& workload, std::uint64_t seed) {
  std::string text = "seed = " + std::to_string(seed) + "\n";
  if (workload == "cold_hetero") {
    // Every cell is cold: Algorithm 1's O(n p) Eq. 6 fill dominates, and
    // the ~10x spread between n=100 and n=1000 cells exercises dealing.
    text +=
        "runs = 4\n"
        "n = 100, 1000\n"
        "p = 10000\n"
        "mtbf_years = 100\n"
        "fault_law = exponential, weibull\n";
  } else {
    // Little slack (p - 2n = 2000) and frequent faults: the heuristics'
    // scans and the event dispatch dominate.
    text +=
        "runs = 4\n"
        "n = 5000\n"
        "p = 12000\n"
        "mtbf_years = 10\n"
        "fault_law = exponential\n";
  }
  text += "configs = ";
  text += kConfigs;
  text += "\n";
  return text;
}

/// Campaign parse plus cost-model planning: the coordinator's work
/// before the first block can be dealt. Appends kSetupRepeats samples.
void sample_setup(const std::string& text, std::vector<double>& samples) {
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    const exp::Campaign campaign = exp::parse_campaign(text);
    const std::vector<exp::Scenario> points = exp::campaign_points(campaign);
    const exp::CostModel model(points, campaign.configs);
    std::vector<std::size_t> runs;
    for (const exp::Scenario& point : points)
      runs.push_back(static_cast<std::size_t>(point.runs));
    const auto queue = exp::make_cell_queue(exp::StorageKind::Ram, runs);
    const auto blocks = exp::plan_deal_blocks(model, *queue, kWorkers);
    samples.push_back(seconds_since(start));
    if (blocks.empty()) throw std::logic_error("empty deal plan");
  }
}

/// Compare an artifact with the reference record by record; every
/// record (the header included) is one checked operation.
void check_artifact(const std::string& got, const std::vector<std::string>& want,
                    const std::string& what, Report& report) {
  const std::vector<std::string> lines = split_lines(got);
  for (std::size_t i = 0; i < want.size(); ++i)
    report.check(i < lines.size() && lines[i] == want[i],
                 what + ": record " + std::to_string(i) + " differs or is missing");
  if (lines.size() > want.size())
    report.check(false, what + ": " + std::to_string(lines.size() - want.size()) +
                            " extra records");
}

/// The campaign seed of round `round` of a run seeded `seed`: each round
/// of a run measures a different campaign of the same grid, so a run
/// averages over many cells' inputs, and one seed always gives the same
/// rounds.
std::uint64_t round_seed(std::uint64_t seed, int round) {
  return seed * 1000 + static_cast<std::uint64_t>(round);
}

/// The single-process artifact of `campaign`, record by record.
std::vector<std::string> reference_records(const exp::Campaign& campaign,
                                           const ScratchDir& scratch) {
  exp::GridRunOptions options;
  options.jsonl_path = scratch.file("reference.jsonl");
  options.threads = nproc();
  (void)exp::run_campaign(campaign, options);
  std::vector<std::string> records = split_lines(read_file(options.jsonl_path));
  std::filesystem::remove(options.jsonl_path);
  return records;
}

/// Time the coordinator, one campaign per round, for `args.seconds`; then
/// check every round's merged artifact against its reference.
void run_untraced(const Args& args, const ScratchDir& scratch, Report& report) {
  std::vector<std::string> texts, artifacts;
  std::vector<double> walls, cpus, rss, setups;
  const Clock::time_point measure_start = Clock::now();
  for (int round = 0; static_cast<int>(walls.size()) < kMinCampaigns ||
                      seconds_since(measure_start) < args.seconds;
       ++round) {
    texts.push_back(campaign_text(args.workload, round_seed(args.seed, round)));
    const std::string campaign_path = scratch.file("campaign.txt");
    write_file(campaign_path, texts.back());
    // Set-up samples are spread over the whole run, between campaigns.
    sample_setup(texts.back(), setups);
    const std::string out = scratch.file("run.jsonl");
    const Clock::time_point start = Clock::now();
    Child coordinator({COREDIS_BENCH_CAMPAIGN_BIN, "--campaign", campaign_path,
                       "--out", out, "--workers", std::to_string(kWorkers),
                       "--threads", "1"},
                      scratch.file("coordinator.log"));
    const Child::Exit exit = coordinator.wait();
    walls.push_back(seconds_since(start));
    cpus.push_back(exit.cpu_seconds);
    rss.push_back(exit.max_rss_mb);
    report.check(exit.ok(), "coordinator failed (merge refused or worker lost); "
                            "see " + scratch.file("coordinator.log"));
    artifacts.push_back(std::filesystem::exists(out) ? read_file(out) : std::string());
    std::filesystem::remove(out);
    std::cerr << "round " << round << ": " << walls.back() << " s wall, " << cpus.back()
              << " s cpu, " << rss.back() << " MB\n";
  }
  const double campaign_s = median(walls);
  const std::size_t cells = exp::parse_campaign(texts.front()).cells();
  report.metric("campaign_s", campaign_s, "s");
  report.metric("cpu_s", median(cpus), "s");
  report.metric("peak_rss_mb", median(rss), "MB");
  report.metric("setup_s", median(setups), "s");
  report.note("campaigns", static_cast<double>(walls.size()));
  report.note("cells_per_campaign", static_cast<double>(cells));
  report.note("cells_per_s", static_cast<double>(cells) / campaign_s);

  // The references are built after the timed campaigns: the coordinator
  // is spawned from this process, and Linux charges a spawned program's
  // peak RSS with the spawner's resident set at exec time.
  for (std::size_t round = 0; round < texts.size(); ++round)
    check_artifact(artifacts[round],
                   reference_records(exp::parse_campaign(texts[round]), scratch),
                   "campaign " + std::to_string(round), report);
}

void run_traced(const Args& args, const ScratchDir& scratch, Report& report) {
  const std::string text = campaign_text(args.workload, round_seed(args.seed, 0));
  const exp::Campaign campaign = exp::parse_campaign(text);
  CellSet cells{exp::campaign_points(campaign), campaign.configs, text};

  // Algorithm 1 on a pack the size of the campaign's largest point, first:
  // a fresh process, as a fresh worker is.
  const exp::Scenario* largest = &cells.points.front();
  for (const exp::Scenario& point : cells.points)
    if (static_cast<double>(point.n) * point.p >
        static_cast<double>(largest->n) * largest->p)
      largest = &point;
  measure_core_alg1(*largest, args.seed, report);

  Tracer tracer;
  const CampaignPasses passes =
      measure_campaign_layers(cells, kWorkers, scratch, tracer, report);
  report.metric("trace.overhead_frac",
                passes.traced_seconds / passes.untraced_seconds - 1.0, "fraction");
  report_layer_shares(tracer, passes.traced_root,
                      args.workload == "cold_hetero" ? "core.alg1" : "core.scan_dispatch",
                      report);

  // The workload's own record bytes through every spill backend.
  std::vector<std::string> records = split_lines(passes.artifact);
  records.erase(records.begin());  // the header is not a cell record
  measure_spill_backends(records, scratch, report);

  // The campaign's cells asked as what-if requests: every point's first
  // repetition, cold and then warm.
  std::vector<std::string> lines;
  for (int pass = 0; pass < 2; ++pass)
    for (const exp::Scenario& point : cells.points)
      lines.push_back(request_line(lines.size() + 1, "what_if", "campaign",
                                   scenario_text(point), kConfigs, 0));
  measure_serve_layers(lines, cells.points.size(), scratch, tracer, report, nullptr);

  check_artifact(passes.artifact, reference_records(campaign, scratch),
                 "in-process dealt campaign", report);
}

}  // namespace

void run_campaign_workload(const Args& args, Report& report) {
  ScratchDir scratch;
  if (args.trace)
    run_traced(args, scratch, report);
  else
    run_untraced(args, scratch, report);
}

}  // namespace coredis_bench
