/// Storage-layer tests (exp/storage.hpp): the cell queue must serve the
/// literal nested-loop layout (points in order, repetitions contiguous)
/// from any number of reader threads; the ram, file and mmap spills must
/// be interchangeable — identical record bytes — the file spill must
/// honour a tiny RAM budget, the mmap spill must survive ftruncate+remap
/// growth across chunk boundaries, neither may leave a scratch file
/// behind (even when its process dies without unwinding), and a
/// whole-grid run over each spill backend must reproduce the ram
/// backend's JSONL artifact and aggregates bit for bit.

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "exp/campaign.hpp"
#include "exp/storage.hpp"

namespace coredis::exp {
namespace {

TEST(StorageKindSelector, ParsesAndNamesEveryBackend) {
  EXPECT_EQ(parse_storage_kind("ram"), StorageKind::Ram);
  EXPECT_EQ(parse_storage_kind("file"), StorageKind::File);
  EXPECT_EQ(parse_storage_kind("mmap"), StorageKind::Mmap);
  EXPECT_STREQ(to_string(StorageKind::Ram), "ram");
  EXPECT_STREQ(to_string(StorageKind::File), "file");
  EXPECT_STREQ(to_string(StorageKind::Mmap), "mmap");
  try {
    (void)parse_storage_kind("tmpfs");
    FAIL() << "must throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("tmpfs"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("ram|file|mmap"),
              std::string::npos);
  }
}

/// The layout spelled literally: every point in order, its repetitions
/// contiguous.
std::vector<CellRef> nested_loop_layout(
    const std::vector<std::size_t>& runs_per_point) {
  std::vector<CellRef> cells;
  for (std::size_t point = 0; point < runs_per_point.size(); ++point)
    for (std::size_t rep = 0; rep < runs_per_point[point]; ++rep)
      cells.push_back({point, rep});
  return cells;
}

void expect_nested_loop_layout(const std::vector<std::size_t>& runs) {
  const CellQueue queue(runs);
  const std::vector<CellRef> want = nested_loop_layout(runs);
  ASSERT_EQ(queue.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    const CellRef got = queue.at(k);
    ASSERT_EQ(got.point, want[k].point) << "cell " << k;
    ASSERT_EQ(got.rep, want[k].rep) << "cell " << k;
  }
}

TEST(CellQueueBackends, ServeTheSameLayoutInTheSameOrder) {
  const std::vector<std::vector<std::size_t>> grids{
      {},         // empty grid
      {0},        // one point without runs
      {0, 0, 0},  // only empty points
      {5},        // single point
      {1},        // single cell
      {4, 1, 3},  // several points, no empty one
  };
  for (const std::vector<std::size_t>& runs : grids) {
    SCOPED_TRACE(::testing::Message() << "points " << runs.size());
    expect_nested_loop_layout(runs);
  }
}

TEST(CellQueueBackends, ZeroRunPointsOwnNoCells) {
  const std::vector<std::vector<std::size_t>> grids{
      {0, 3, 1},           // zero-run point at the front
      {3, 1, 0, 2},        // ... in the middle
      {2, 2, 0},           // ... at the back
      {0, 4, 0, 0, 1, 0},  // several, everywhere
  };
  for (const std::vector<std::size_t>& runs : grids) {
    SCOPED_TRACE(::testing::Message() << "points " << runs.size());
    expect_nested_loop_layout(runs);
    const CellQueue queue(runs);
    for (std::size_t k = 0; k < queue.size(); ++k)
      EXPECT_NE(runs[queue.at(k).point], 0u) << "cell " << k;
  }
}

TEST(CellQueueBackends, LargeGridMatchesTheNestedLoop) {
  // About 10^5 cells over points of mixed sizes, empty ones included.
  std::vector<std::size_t> large;
  for (std::size_t point = 0; point < 1170; ++point)
    large.push_back(point % 7 == 3 ? 0 : (point * 37) % 199 + 1);
  expect_nested_loop_layout(large);
}

TEST(CellQueueBackends, CopiesServeTheSameLayout) {
  // Runners hold the queue by value, often built from a runs vector that
  // dies first: a copy or a move must not depend on its source.
  std::vector<std::size_t> runs{2, 0, 3, 1};
  const CellQueue original(runs);
  const CellQueue copy = original;
  CellQueue source(runs);
  const CellQueue moved = std::move(source);
  runs.assign(runs.size(), 9);
  const std::vector<CellRef> want = nested_loop_layout({2, 0, 3, 1});
  ASSERT_EQ(copy.size(), want.size());
  ASSERT_EQ(moved.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(copy.at(k).point, want[k].point) << "cell " << k;
    EXPECT_EQ(copy.at(k).rep, want[k].rep) << "cell " << k;
    EXPECT_EQ(moved.at(k).point, want[k].point) << "cell " << k;
    EXPECT_EQ(moved.at(k).rep, want[k].rep) << "cell " << k;
  }
}

TEST(CellQueueBackends, ShimIgnoresTheStorageKind) {
  for (const StorageKind kind :
       {StorageKind::Ram, StorageKind::File, StorageKind::Mmap}) {
    const std::unique_ptr<CellQueue> shim = make_cell_queue(kind, {3, 1, 0, 2});
    ASSERT_EQ(shim->size(), 6u) << to_string(kind);
    EXPECT_EQ(shim->at(4).point, 3u) << to_string(kind);
    EXPECT_EQ(shim->at(5).rep, 1u) << to_string(kind);
  }
}

TEST(CellQueueBackends, IndexPastTheEndViolatesThePrecondition) {
  const CellQueue queue({3, 0, 2});
  EXPECT_DEATH((void)queue.at(queue.size()), "precondition");
  const CellQueue empty({});
  EXPECT_DEATH((void)empty.at(0), "precondition");
}

TEST(CellQueueBackends, ConcurrentReadersSeeTheSameLayout) {
  std::vector<std::size_t> runs;
  for (std::size_t point = 0; point < 300; ++point)
    runs.push_back(point % 5 == 0 ? 0 : point % 13 + 1);
  const CellQueue queue(runs);
  const std::vector<CellRef> want = nested_loop_layout(runs);
  constexpr std::size_t kReaders = 4;
  std::vector<std::size_t> mismatches(kReaders, 0);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r)
    readers.emplace_back([&, r] {
      // Each reader walks the whole layout from its own offset.
      for (std::size_t i = 0; i < want.size(); ++i) {
        const std::size_t k = (i + r * want.size() / kReaders) % want.size();
        const CellRef got = queue.at(k);
        if (got.point != want[k].point || got.rep != want[k].rep)
          ++mismatches[r];
      }
    });
  for (std::thread& reader : readers) reader.join();
  for (std::size_t r = 0; r < kReaders; ++r)
    EXPECT_EQ(mismatches[r], 0u) << "reader " << r;
}

TEST(ResultSpillBackends, RoundTripExactBytesOutOfOrder) {
  for (const StorageKind kind :
       {StorageKind::Ram, StorageKind::File, StorageKind::Mmap}) {
    // A 16-byte budget forces the file backend to spill most records.
    const std::unique_ptr<ResultSpill> spill = make_result_spill(kind, "", 16);
    const std::vector<std::string> records{
        R"({"cell":0,"x":1})", R"({"cell":1,"y":"with \"quotes\""})",
        std::string(100, 'z'), "", R"({"cell":4})"};
    // Arrive out of order, as a parallel grid would deliver them.
    for (const std::size_t k : {3u, 1u, 4u, 0u, 2u})
      spill->put(k, records[k]);
    EXPECT_EQ(spill->pending(), records.size());

    std::string out;
    EXPECT_FALSE(spill->take(7, out)) << to_string(kind);
    for (std::size_t k = 0; k < records.size(); ++k) {
      ASSERT_TRUE(spill->take(k, out)) << to_string(kind) << " cell " << k;
      EXPECT_EQ(out, records[k]) << to_string(kind) << " cell " << k;
    }
    EXPECT_EQ(spill->pending(), 0u);
    EXPECT_FALSE(spill->take(0, out));
  }
}

TEST(ResultSpillBackends, FileSpillHonoursTheRamBudget) {
  const std::size_t budget = 64;
  const std::unique_ptr<ResultSpill> spill =
      make_result_spill(StorageKind::File, "", budget);
  // 20 records of 24 bytes: at most two fit the budget at a time.
  std::vector<std::string> records;
  for (std::size_t k = 0; k < 20; ++k)
    records.push_back("record-" + std::to_string(k) + "-" +
                      std::string(24 - 9 - std::to_string(k).size(), 'x'));
  for (std::size_t k = 0; k < records.size(); ++k) {
    spill->put(k, records[k]);
    EXPECT_LE(spill->resident_bytes(), budget) << "after put " << k;
  }
  EXPECT_EQ(spill->pending(), records.size());
  std::string out;
  for (std::size_t k = 0; k < records.size(); ++k) {
    ASSERT_TRUE(spill->take(k, out));
    EXPECT_EQ(out, records[k]);
    EXPECT_LE(spill->resident_bytes(), budget);
  }
  EXPECT_EQ(spill->pending(), 0u);
  EXPECT_EQ(spill->resident_bytes(), 0u);
  // A drained spill starts over cleanly.
  spill->put(0, records[0]);
  ASSERT_TRUE(spill->take(0, out));
  EXPECT_EQ(out, records[0]);
}

/// A fresh, empty directory under the temp directory.
std::filesystem::path fresh_dir(const char* name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ResultSpillBackends, ScratchFilesAreRemovedOnDestruction) {
  // The scratch names are unlinked as soon as the files are opened: the
  // directory stays empty while the spills hold records (which still read
  // back, across a drain and refill that truncates the unnamed file), and
  // after they are gone.
  const std::filesystem::path dir = fresh_dir("coredis_storage_test_scratch");
  for (const StorageKind kind : {StorageKind::File, StorageKind::Mmap}) {
    SCOPED_TRACE(to_string(kind));
    {
      const std::unique_ptr<ResultSpill> spill =
          make_result_spill(kind, dir.string(), 1);
      std::string out;
      for (const char* record : {"spilled-beyond-the-one-byte-budget",
                                 "refilled-after-the-drain"}) {
        spill->put(0, record);
        EXPECT_TRUE(std::filesystem::is_empty(dir));
        ASSERT_TRUE(spill->take(0, out));
        EXPECT_EQ(out, record);
      }
    }
    EXPECT_TRUE(std::filesystem::is_empty(dir));
  }
  std::filesystem::remove_all(dir);
}

TEST(ResultSpillBackends, ProcessDeathWithoutUnwindingLeavesNoScratch) {
  // A forked child spills a record into each file-backed spill, then
  // leaves through _exit: no destructor runs. Nothing carrying its pid
  // may remain in the spill directory.
  const std::filesystem::path dir = fresh_dir("coredis_storage_test_death");
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const std::unique_ptr<ResultSpill> file =
        make_result_spill(StorageKind::File, dir.string(), 1);
    const std::unique_ptr<ResultSpill> mmap =
        make_result_spill(StorageKind::Mmap, dir.string());
    file->put(0, "spilled-beyond-the-one-byte-budget");
    mmap->put(0, "mapped");
    ::_exit(file->pending() == 1 && mmap->pending() == 1 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "the child could not spill";
  // Appends, not an operator+ chain: GCC 12 misfires -Wrestrict on the
  // latter (GCC PR105329).
  std::string pid_tag = "_";
  pid_tag += std::to_string(child);
  pid_tag += '_';
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    EXPECT_EQ(entry.path().filename().string().find(pid_tag),
              std::string::npos)
        << entry.path();
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(ResultSpillBackends, MmapSpillRemapsAcrossChunkBoundaries) {
  // Records whose total crosses the 1 MiB growth chunk several times:
  // every put after the first remap reads back bytes written into an
  // earlier mapping generation, and a drained backlog truncates the
  // scratch file so the next fill starts over.
  const std::unique_ptr<ResultSpill> spill =
      make_result_spill(StorageKind::Mmap);
  for (int round = 0; round < 2; ++round) {
    std::vector<std::string> records;
    for (std::size_t k = 0; k < 7; ++k)
      records.push_back(std::string((std::size_t{1} << 19) + k,
                                    static_cast<char>('a' + k)) +
                        std::to_string(round));
    for (const std::size_t k : {6u, 0u, 3u, 1u, 5u, 2u, 4u})
      spill->put(k, records[k]);
    EXPECT_EQ(spill->pending(), records.size());
    EXPECT_EQ(spill->resident_bytes(), 0u) << "payload lives in the mapping";
    std::string out;
    for (std::size_t k = 0; k < records.size(); ++k) {
      ASSERT_TRUE(spill->take(k, out)) << "round " << round << " cell " << k;
      EXPECT_EQ(out, records[k]) << "round " << round << " cell " << k;
    }
    EXPECT_EQ(spill->pending(), 0u);
  }
}

TEST(StorageGrid, EveryBackendReproducesTheRamArtifactBitForBit) {
  // The pinned smoke grid of campaign_test, run once per backend; the
  // file run gets a 1-byte spill budget (every out-of-order record goes
  // to disk) and 8 threads (maximum reordering pressure).
  const Campaign campaign = parse_campaign(
      "n = 6\np = 24\nruns = 2\nseed = 20260726\nmtbf_years = 2, 50\n"
      "fault_law = exponential, weibull\nconfigs = baseline, ig_local\n");
  const auto path_of = [](const char* tag) {
    return (std::filesystem::temp_directory_path() /
            ("coredis_storage_test_" + std::string(tag) + ".jsonl"))
        .string();
  };
  const auto read_all = [](const std::string& path) {
    std::ifstream file(path, std::ios::binary);
    std::ostringstream text;
    text << file.rdbuf();
    return text.str();
  };

  GridRunOptions ram;
  ram.jsonl_path = path_of("ram");
  ram.threads = 8;
  std::filesystem::remove(ram.jsonl_path);
  const std::vector<PointResult> ram_points = run_campaign(campaign, ram);

  GridRunOptions file = ram;
  file.jsonl_path = path_of("file");
  file.storage = StorageKind::File;
  file.spill_ram_budget_bytes = 1;
  std::filesystem::remove(file.jsonl_path);
  const std::vector<PointResult> file_points = run_campaign(campaign, file);

  GridRunOptions mapped = ram;
  mapped.jsonl_path = path_of("mmap");
  mapped.storage = StorageKind::Mmap;
  std::filesystem::remove(mapped.jsonl_path);
  (void)run_campaign(campaign, mapped);
  EXPECT_EQ(read_all(mapped.jsonl_path), read_all(file.jsonl_path));
  std::filesystem::remove(mapped.jsonl_path);

  EXPECT_EQ(read_all(ram.jsonl_path), read_all(file.jsonl_path));
  ASSERT_EQ(ram_points.size(), file_points.size());
  for (std::size_t i = 0; i < ram_points.size(); ++i) {
    EXPECT_EQ(ram_points[i].baseline_makespan.mean(),
              file_points[i].baseline_makespan.mean());
    EXPECT_EQ(ram_points[i].baseline_makespan.variance(),
              file_points[i].baseline_makespan.variance());
    ASSERT_EQ(ram_points[i].configs.size(), file_points[i].configs.size());
    for (std::size_t c = 0; c < ram_points[i].configs.size(); ++c) {
      EXPECT_EQ(ram_points[i].configs[c].normalized.mean(),
                file_points[i].configs[c].normalized.mean());
      EXPECT_EQ(ram_points[i].configs[c].makespan.variance(),
                file_points[i].configs[c].makespan.variance());
    }
  }
  std::filesystem::remove(ram.jsonl_path);
  std::filesystem::remove(file.jsonl_path);
}

}  // namespace
}  // namespace coredis::exp
