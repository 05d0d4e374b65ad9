/// Shard-fabric coordinator tests (exp/fabric.hpp), driven in-process:
/// dealt and static blocks merge to the single-process bytes, a resumed
/// campaign deals only the cells no shard file holds, and the failure
/// paths — a worker dying mid-block, a malformed ack, every worker
/// dying, a caught SIGINT — fire deterministically through the
/// worker-body seam and leave no child process, scratch file or signal
/// handler behind.

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "exp/campaign.hpp"
#include "exp/fabric.hpp"
#include "exp/storage.hpp"

namespace coredis::exp {
namespace {

/// 4 points x 2 repetitions = 8 cells, milliseconds per cell.
const char* const kSmokeCampaign = R"(
n = 6
p = 24
runs = 2
seed = 20260726
mtbf_years = 2, 50
fault_law = exponential, weibull
configs = baseline, ig_local, stf_greedy
)";

std::string read_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

std::size_t count_lines(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

/// Per-process names: ctest runs these tests as parallel processes.
std::filesystem::path temp_path(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("coredis_fabric_test_" + tag + "_" + std::to_string(::getpid()));
}

std::filesystem::path temp_jsonl(const std::string& tag) {
  return temp_path(tag) += ".jsonl";
}

void remove_run(const std::filesystem::path& out, std::size_t workers) {
  std::filesystem::remove(out);
  for (std::size_t k = 0; k < workers; ++k)
    std::filesystem::remove(shard_path(out.string(), {k, workers}));
}

/// The single-process artifact every fabric run must reproduce.
std::string single_process_bytes(const Campaign& campaign) {
  const auto path = temp_jsonl("single");
  std::filesystem::remove(path);
  GridRunOptions options;
  options.jsonl_path = path.string();
  (void)run_campaign(campaign, options);
  const std::string bytes = read_file(path);
  std::filesystem::remove(path);
  return bytes;
}

GridRunOptions fabric_options(const std::filesystem::path& out) {
  GridRunOptions options;
  options.jsonl_path = out.string();
  options.threads = 1;
  return options;
}

/// No forked worker may outlive a coordination.
void expect_no_children() {
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(CampaignFabric, DealtAndStaticBlocksMergeToSingleProcessBytes) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const std::string reference = single_process_bytes(campaign);
  for (const bool static_blocks : {false, true}) {
    for (const std::size_t workers : {1u, 2u, 3u}) {
      const auto out = temp_jsonl("merge");
      remove_run(out, workers);
      FabricOptions fabric;
      fabric.workers = workers;
      fabric.static_blocks = static_blocks;
      const FabricReport report =
          run_fabric(campaign, fabric_options(out), fabric);
      EXPECT_EQ(report.signal, 0);
      EXPECT_EQ(report.cells_dealt, campaign.cells());
      EXPECT_EQ(report.cells_resumed, 0u);
      if (static_blocks) {
        EXPECT_EQ(report.blocks, workers);
      }
      EXPECT_EQ(read_file(out), reference)
          << workers << " workers, static " << static_blocks;
      // Shard files are removed after a successful merge.
      for (std::size_t k = 0; k < workers; ++k)
        EXPECT_FALSE(
            std::filesystem::exists(shard_path(out.string(), {k, workers})));
      remove_run(out, workers);
    }
  }
  expect_no_children();
}

/// Worker 0's first incarnation flushes half of its first block, then
/// dies before acking it; every other incarnation is the real body.
int die_mid_first_block(const std::vector<Scenario>& points,
                        const std::vector<ConfigSpec>& configs,
                        WorkerLink& link) {
  if (link.index != 0 || link.attempt != 1)
    return serve_dealt_blocks(points, configs, link);
  DealWorker worker(points, configs, link.index, link.workers,
                    link.options);
  DealBlock block;
  if (!link.next(block)) return 1;
  worker.run_block(block.begin, block.begin + (block.end - block.begin) / 2);
  std::_Exit(9);
}

TEST(CampaignFabric, WorkerDeathMidBlockIsRedealtAndRespawned) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const std::string reference = single_process_bytes(campaign);
  for (const bool static_blocks : {true, false}) {
    const auto out = temp_jsonl("death");
    remove_run(out, 2);
    FabricOptions fabric;
    fabric.workers = 2;
    fabric.static_blocks = static_blocks;
    fabric.worker_body = die_mid_first_block;
    const FabricReport report =
        run_fabric(campaign, fabric_options(out), fabric);
    EXPECT_EQ(report.signal, 0);
    EXPECT_EQ(report.redeals, 1u) << "static " << static_blocks;
    EXPECT_EQ(report.respawns, 1u) << "static " << static_blocks;
    EXPECT_EQ(read_file(out), reference) << "static " << static_blocks;
    remove_run(out, 2);
  }
  expect_no_children();
}

TEST(CampaignFabric, ResumeDealsOnlyTheCellsNoShardHolds) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const std::vector<Scenario> points = campaign_points(campaign);
  const std::string reference = single_process_bytes(campaign);
  for (const bool static_blocks : {false, true}) {
    const auto out = temp_jsonl("resume");
    remove_run(out, 2);
    const GridRunOptions options = fabric_options(out);
    {
      // An interrupted run: worker 0 finished cells 0-2, worker 1 cell
      // 5, and worker 0 was killed mid-append (an unterminated tail).
      DealWorker w0(points, campaign.configs, 0, 2, options);
      DealWorker w1(points, campaign.configs, 1, 2, options);
      w0.run_block(0, 3);
      w1.run_block(5, 6);
    }
    {
      std::ofstream torn(shard_path(out.string(), {0, 2}),
                         std::ios::binary | std::ios::app);
      torn << "{\"cell\":3,\"point\":1";
    }

    GridRunOptions resume = options;
    resume.resume = true;
    FabricOptions fabric;
    fabric.workers = 2;
    fabric.static_blocks = static_blocks;
    fabric.keep_shards = true;
    const FabricReport report = run_fabric(campaign, resume, fabric);
    EXPECT_EQ(report.cells_resumed, 4u);
    EXPECT_EQ(report.cells_dealt, 4u);
    EXPECT_EQ(read_file(out), reference) << "static " << static_blocks;
    // Every cell was computed exactly once: the shard files hold one
    // record per cell between them, no duplicates.
    std::size_t records = 0;
    for (std::size_t k = 0; k < 2; ++k)
      records += count_lines(read_file(shard_path(out.string(), {k, 2}))) - 1;
    EXPECT_EQ(records, campaign.cells()) << "static " << static_blocks;
    remove_run(out, 2);
  }
  expect_no_children();
}

TEST(CampaignFabric, MalformedAckStopsReapsAndSweepsEveryWorker) {
  namespace fs = std::filesystem;
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const fs::path dir = temp_path("ack");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto out = dir / "out.jsonl";
  GridRunOptions options = fabric_options(out);
  options.storage_dir = dir.string();

  FabricOptions fabric;
  fabric.workers = 2;
  // Each worker opens its shard and spills one record through a file
  // spill with a 1-byte budget (a pid-tagged scratch file), acks
  // garbage, then waits for commands until it is stopped.
  fabric.worker_body = [](const std::vector<Scenario>& points,
                          const std::vector<ConfigSpec>& configs,
                          WorkerLink& link) {
    DealWorker worker(points, configs, link.index, link.workers,
                      link.options);
    const std::unique_ptr<ResultSpill> spill = make_result_spill(
        StorageKind::File, link.options.storage_dir, 1);
    spill->put(0, "spilled-beyond-the-one-byte-budget");
    link.send("garbage\n");
    DealBlock block;
    while (link.next(block)) {
    }
    return 0;
  };
  try {
    (void)run_fabric(campaign, options, fabric);
    FAIL() << "a malformed ack must abort the coordination";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("malformed ack"),
              std::string::npos)
        << error.what();
  }
  expect_no_children();
  // The stopped workers' scratch is swept; nothing was merged.
  for (const fs::directory_entry& entry : fs::directory_iterator(dir))
    EXPECT_NE(entry.path().extension(), ".bin") << entry.path();
  EXPECT_FALSE(fs::exists(out));
  // The coordinator's signal dispositions are restored.
  struct sigaction current {};
  ::sigaction(SIGINT, nullptr, &current);
  EXPECT_EQ(current.sa_handler, SIG_DFL);
  ::sigaction(SIGPIPE, nullptr, &current);
  EXPECT_EQ(current.sa_handler, SIG_DFL);
  fs::remove_all(dir);
}

TEST(CampaignFabric, EveryWorkerDyingAbortsWithoutAMerge) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const auto out = temp_jsonl("all_dead");
  remove_run(out, 2);
  FabricOptions fabric;
  fabric.workers = 2;
  fabric.worker_body = [](const std::vector<Scenario>&,
                          const std::vector<ConfigSpec>&,
                          WorkerLink&) { return 3; };
  try {
    (void)run_fabric(campaign, fabric_options(out), fabric);
    FAIL() << "must give up once every worker is spent";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("every worker kept dying"),
              std::string::npos)
        << error.what();
  }
  expect_no_children();
  EXPECT_FALSE(std::filesystem::exists(out));
  remove_run(out, 2);
}

TEST(CampaignFabric, CaughtSignalStopsTheRunAndResumeCompletesIt) {
  const Campaign campaign = parse_campaign(kSmokeCampaign);
  const std::string reference = single_process_bytes(campaign);
  const auto out = temp_jsonl("signal");
  remove_run(out, 2);
  FabricOptions fabric;
  fabric.workers = 2;
  // Worker 0 interrupts the coordinator before its first ack, so the
  // signal always lands while the coordinator's handler is installed.
  fabric.worker_body = [](const std::vector<Scenario>& points,
                          const std::vector<ConfigSpec>& configs,
                          WorkerLink& link) {
    if (link.index == 0 && link.attempt == 1) ::kill(::getppid(), SIGINT);
    return serve_dealt_blocks(points, configs, link);
  };
  const FabricReport stopped =
      run_fabric(campaign, fabric_options(out), fabric);
  EXPECT_EQ(stopped.signal, SIGINT);
  expect_no_children();
  EXPECT_FALSE(std::filesystem::exists(out));

  GridRunOptions resume = fabric_options(out);
  resume.resume = true;
  fabric.worker_body = nullptr;
  const FabricReport resumed = run_fabric(campaign, resume, fabric);
  EXPECT_EQ(resumed.signal, 0);
  EXPECT_EQ(resumed.cells_resumed + resumed.cells_dealt, campaign.cells());
  EXPECT_EQ(read_file(out), reference);
  remove_run(out, 2);
  expect_no_children();
}

}  // namespace
}  // namespace coredis::exp
