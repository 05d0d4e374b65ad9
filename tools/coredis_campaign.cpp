/// coredis_campaign — run, resume, summarize, shard and merge declarative
/// campaign grids (src/exp/campaign.hpp).
///
/// A campaign file is a scenario file whose grid keys (n, p, mtbf_years,
/// fault_law, checkpoint_unit_cost, period_rule, arrival_law,
/// load_factor) accept comma-separated sweep lists, plus a
/// `configs = ...` selector (`paper`, `fault_free`, `online`, or a comma
/// list of configuration names — see campaign.hpp). The orchestrator
/// flattens grid x repetitions into cells, executes them on one global
/// parallel queue, streams each completed cell to --out as a JSONL record
/// (committed in cell order, so the file is deterministic for any
/// COREDIS_THREADS), and prints the per-point summary table.
///
/// Distributed campaigns (DESIGN.md sections 7.4 and 12.3) share one
/// shard format: `--workers N` runs the exp/fabric.hpp coordinator over N
/// local worker processes — dealing cost-guided cell blocks to whichever
/// worker is idle, or with `--deal static` one equal contiguous block per
/// worker; lost blocks are re-dealt — `--worker k/W` runs the block
/// shard_range(cells, {k, W}) in-process for external launchers (ssh,
/// mpirun), and `--merge W` reassembles the byte-identical single-file
/// artifact from either.
///
///   coredis_campaign --campaign grid.txt --out results.jsonl
///   coredis_campaign --campaign grid.txt --out results.jsonl --resume
///   coredis_campaign --campaign grid.txt --out results.jsonl --workers 4
///   coredis_campaign --campaign grid.txt --out results.jsonl --worker 1/4
///   coredis_campaign --campaign grid.txt --out results.jsonl --merge 4
///   coredis_campaign --campaign grid.txt --summarize results.jsonl
///   coredis_campaign --campaign grid.txt --list

#include <cstddef>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/fabric.hpp"
#include "exp/scenario_file.hpp"
#include "exp/storage.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

namespace {

using namespace coredis;

int list_campaign(const exp::Campaign& campaign) {
  const std::size_t points = campaign.grid.points();
  std::cout << "campaign: " << points << " points x "
            << campaign.grid.base.runs << " repetitions = "
            << campaign.cells() << " cells, " << campaign.configs.size()
            << " configurations\n\n";
  for (std::size_t i = 0; i < points; ++i)
    std::cout << "  point " << i << ": " << campaign.grid.point_label(i)
              << '\n';
  std::cout << "\nconfigurations:\n";
  for (const exp::ConfigSpec& config : campaign.configs)
    std::cout << "  " << config.name << '\n';
  return 0;
}

int summarize_campaign(const exp::Campaign& campaign,
                       const std::string& path) {
  exp::JsonlCoverage coverage;
  const std::vector<exp::PointResult> points =
      exp::summarize_jsonl(campaign, path, &coverage);
  std::cout << "cells: " << coverage.cells_present << "/"
            << coverage.cells_total << " present in " << path;
  if (coverage.dropped_corrupt_tail)
    std::cout << " (ignoring a truncated trailing record)";
  std::cout << "\n\n" << exp::render_campaign_table(campaign, points);
  return 0;
}

/// Overwrite refusal for the final artifact and for shard files alike:
/// an existing file is only ever reused under --resume. Shard refusals
/// are loud and per-file — every clobber candidate is named before the
/// run aborts, so a mis-aimed launcher cannot silently eat a shard.
void refuse_existing(const std::string& path, const char* what) {
  if (!std::filesystem::exists(path)) return;
  throw std::runtime_error(
      std::string(what) + " exists: " + path +
      " (pass --resume to continue it, or remove it to start over)");
}

void refuse_existing_shards(const std::string& out, std::size_t workers) {
  bool any = false;
  for (std::size_t k = 0; k < workers; ++k) {
    const std::string path = exp::shard_path(out, {k, workers});
    if (std::filesystem::exists(path)) {
      std::cerr << "error: shard file exists: " << path
                << " (pass --resume to continue it, or remove it to start "
                   "over)\n";
      any = true;
    }
  }
  if (any)
    throw std::runtime_error("refusing to overwrite existing shard files");
}

int run_campaign_to(const exp::Campaign& campaign,
                    const exp::GridRunOptions& options) {
  std::cerr << "running " << campaign.cells() << " cells over "
            << campaign.grid.points() << " points ("
            << (options.threads == 0 ? default_thread_count()
                                     : options.threads)
            << " threads) -> " << options.jsonl_path << '\n';
  const std::vector<exp::PointResult> points =
      exp::run_campaign(campaign, options);
  std::cout << exp::render_campaign_table(campaign, points);
  std::cout << "\nresults written to " << options.jsonl_path << '\n';
  return 0;
}

int run_worker(const exp::Campaign& campaign, const exp::ShardSpec& shard,
               const exp::GridRunOptions& options) {
  const std::string path = exp::shard_path(options.jsonl_path, shard);
  if (!options.resume) refuse_existing(path, "shard file");
  const auto [begin, end] = exp::shard_range(campaign.cells(), shard);
  exp::DealWorker worker(exp::campaign_points(campaign), campaign.configs,
                         shard.index, shard.count, options);
  worker.run_block(begin, end);
  std::cout << "shard " << shard.index << "/" << shard.count << " (cells "
            << begin << ".." << end << ") written to " << path << '\n';
  return 0;
}

int merge_to(const exp::Campaign& campaign, std::size_t workers,
             const std::string& out) {
  exp::merge_deal_shards(exp::campaign_points(campaign), campaign.configs,
                         workers, out);
  std::cout << "merged " << workers << " shards -> " << out << '\n';
  return 0;
}

int run_workers(const exp::Campaign& campaign,
                const exp::GridRunOptions& options,
                const exp::FabricOptions& fabric) {
  const exp::FabricReport report = exp::run_fabric(campaign, options, fabric);
  if (report.signal != 0) return 128 + report.signal;
  const std::vector<exp::PointResult> points =
      exp::summarize_jsonl(campaign, options.jsonl_path);
  std::cout << exp::render_campaign_table(campaign, points);
  std::cout << "\nresults written to " << options.jsonl_path << " ("
            << fabric.workers << " workers, "
            << (fabric.static_blocks ? "static" : "dynamic") << " dealing)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliParser cli(argc, argv);
    cli.describe("campaign",
                 "campaign grid file: scenario keys, sweepable axes (n, p, "
                 "mtbf_years, fault_law, checkpoint_unit_cost, period_rule, "
                 "arrival_law, load_factor) and a configs selector "
                 "(see src/exp/campaign.hpp)")
        .describe("out", "JSONL results file (one record per cell)")
        .describe("resume", "continue an interrupted --out file")
        .describe("summarize",
                  "aggregate this JSONL file instead of running anything")
        .describe("list", "print the grid points and configurations, then exit")
        .describe("threads", "worker threads (default: COREDIS_THREADS or all cores; "
                  "per process under --workers, where the default is a fair share)")
        .describe("runs", "override the campaign's repetitions per point")
        .describe("seed", "override the campaign's master seed")
        .describe("workers",
                  "coordinate N local worker processes, dealing cost-guided "
                  "cell blocks to idle workers (see --deal), then merge "
                  "byte-identically into --out")
        .describe("deal",
                  "block distribution under --workers: dynamic (default; "
                  "cost-guided blocks dealt longest-first to idle workers) "
                  "or static (one equal contiguous block per worker)")
        .describe("worker",
                  "run the contiguous block <index>/<count> (e.g. 1/4) into "
                  "its own shard file, for external launchers; with "
                  "--resume, skips the cells the file already holds")
        .describe("merge",
                  "merge <count> shard files (from --workers or --worker) "
                  "into --out, then exit")
        .describe("keep-shards", "keep per-shard files after a --workers merge")
        .describe("storage",
                  "result-spill backend: ram (default), file (bounded RAM; "
                  "see --spill-mb), or mmap (memory-mapped scratch, "
                  "page-cache resident; POSIX only)")
        .describe("spill-dir",
                  "scratch directory for the --storage file/mmap spill "
                  "(default: system temp)")
        .describe("spill-mb",
                  "RAM budget in MiB for the file-backed result spill "
                  "(default: 16)");
    if (cli.wants_help()) {
      std::cout << cli.usage("campaign grid runner (run/resume/summarize)");
      return 0;
    }
    cli.reject_unknown();

    const std::string campaign_path = cli.get_string("campaign", "");
    if (campaign_path.empty())
      throw std::invalid_argument("--campaign <file> is required");
    exp::Campaign campaign = exp::load_campaign(campaign_path);
    // Overrides parse through the scenario-file semantics, so --seed
    // covers the same full 64-bit range campaign files do.
    if (const auto runs = cli.get("runs"))
      exp::apply_scenario_key(campaign.grid.base, "runs", *runs);
    if (const auto seed = cli.get("seed"))
      exp::apply_scenario_key(campaign.grid.base, "seed", *seed);
    if (campaign.grid.base.runs < 1)
      throw std::runtime_error("campaign: runs must be >= 1");

    if (cli.get_bool("list")) return list_campaign(campaign);
    if (const auto summarize = cli.get("summarize"))
      return summarize_campaign(campaign, *summarize);

    const std::string out = cli.get_string("out", "");
    if (out.empty())
      throw std::invalid_argument(
          "--out <file.jsonl> is required (or --list/--summarize)");
    const long threads = cli.get_int("threads", 0);
    if (threads < 0) throw std::invalid_argument("--threads must be >= 0");

    exp::GridRunOptions options;
    options.jsonl_path = out;
    options.resume = cli.get_bool("resume");
    options.threads = static_cast<std::size_t>(threads);
    options.storage = exp::parse_storage_kind(cli.get_string("storage", "ram"));
    options.storage_dir = cli.get_string("spill-dir", "");
    const long spill_mb = cli.get_int("spill-mb", 16);
    if (spill_mb < 1) throw std::invalid_argument("--spill-mb must be >= 1");
    options.spill_ram_budget_bytes =
        static_cast<std::size_t>(spill_mb) << 20;
    const std::string deal = cli.get_string("deal", "dynamic");
    if (deal != "dynamic" && deal != "static")
      throw std::invalid_argument("--deal must be dynamic or static (got '" +
                                  deal + "')");

    if (const auto merge = cli.get("merge")) {
      const long count = cli.get_int("merge", 0);
      if (count < 1) throw std::invalid_argument("--merge must be >= 1");
      if (std::filesystem::exists(out))
        throw std::runtime_error("output file exists: " + out +
                                 " (remove it to merge again)");
      return merge_to(campaign, static_cast<std::size_t>(count), out);
    }
    if (const auto worker = cli.get("worker"))
      return run_worker(campaign, exp::parse_shard_spec(*worker), options);
    if (const auto workers = cli.get("workers")) {
      const long count = cli.get_int("workers", 0);
      if (count < 1) throw std::invalid_argument("--workers must be >= 1");
      if (!options.resume) {
        refuse_existing(out, "output file");
        refuse_existing_shards(out, static_cast<std::size_t>(count));
      }
      exp::FabricOptions fabric;
      fabric.workers = static_cast<std::size_t>(count);
      fabric.static_blocks = deal == "static";
      fabric.keep_shards = cli.get_bool("keep-shards");
      return run_workers(campaign, options, fabric);
    }
    if (!options.resume) refuse_existing(out, "output file");
    return run_campaign_to(campaign, options);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
