#pragma once

/// \file campaign.hpp
/// Whole-grid campaign orchestration (paper section 6 at scale).
///
/// A campaign is a declarative grid — a base Scenario crossed with sweep
/// axes over n, p, MTBF, fault law, checkpoint cost and period rule —
/// times a configuration set. The orchestrator flattens every
/// (point, repetition) pair of the grid into one global work queue over
/// util::parallel_for, so a full-grid reproduction keeps every core busy
/// across point boundaries instead of draining one point at a time.
///
/// Determinism contract: a cell's workload and fault streams derive from
/// (point seed, repetition) alone (exp::run_cell), cells are folded into
/// point statistics in repetition order, and the JSONL sink commits
/// records in cell order — so both the aggregates and the output file are
/// byte-identical for any COREDIS_THREADS value.
///
/// Resume contract: with a JSONL path and resume=true, the orchestrator
/// validates the file's header (a fingerprint over every point scenario
/// and the configuration names), accepts the longest valid prefix of cell
/// records, drops a truncated or corrupted trailing record, recomputes
/// only the missing cells, and appends them in order — the final file is
/// byte-for-byte the one an uninterrupted run would have produced.
///
/// Campaign files extend the scenario-file format (scenario_file.hpp):
///
///   # base knobs: any scenario key, single-valued
///   runs = 8
///   seed = 42
///   # sweep axes: comma-separated lists over the grid keys
///   n = 100, 200
///   mtbf_years = 5, 25, 100
///   fault_law = exponential, weibull
///   arrival_law = poisson        # online workload (none|poisson|bulk|trace)
///   load_factor = 0.25, 1, 4     # offered load rho, sweepable
///   # configuration set (default: paper)
///   configs = paper
///   # or registry policy strings (policy/registry.hpp; alias: policy)
///   policy = "bandit(window=50, explore=0.1), malleable"
///
/// `configs` (aliases `policy`, `policies`) accepts `paper` (the six
/// section-6.2 curves), `fault_free` (the Figure 5-6 trio), `online`
/// (the malleable/EASY/FCFS arrival trio), or a comma list mixing the
/// preset names baseline, ig_greedy, ig_local, stf_greedy, stf_local,
/// rc_fault_free, malleable, easy, fcfs with registry policy strings
/// such as `pack(end=greedy)` or `reshape(gain=0.8)` (commas inside
/// parentheses do not split; surrounding quotes optional).

#include <cstddef>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/storage.hpp"

namespace coredis::exp {

class CostModel;

/// Declarative parameter grid: a base scenario plus sweep axes. An empty
/// axis keeps the base value. Axes nest n (outermost) -> p -> mtbf_years
/// -> fault_laws -> checkpoint_unit_costs -> period_rules ->
/// arrival_laws -> load_factors (innermost); point(i) decodes i in that
/// mixed-radix order, so the flattened grid walks the innermost axis
/// fastest.
struct ScenarioGrid {
  Scenario base;
  std::vector<int> n;
  std::vector<int> p;
  std::vector<double> mtbf_years;
  std::vector<FaultLaw> fault_laws;
  std::vector<double> checkpoint_unit_costs;
  std::vector<checkpoint::PeriodRule> period_rules;
  std::vector<extensions::ArrivalLaw> arrival_laws;
  std::vector<double> load_factors;

  /// Number of grid points (product of axis sizes; 1 with no axes).
  [[nodiscard]] std::size_t points() const noexcept;

  /// Materialize grid point `index` (precondition: index < points()).
  [[nodiscard]] Scenario point(std::size_t index) const;

  /// Human-readable "key=value ..." over the varying axes of point
  /// `index` ("base" when the grid has no axes).
  [[nodiscard]] std::string point_label(std::size_t index) const;
};

/// A grid crossed with the configurations to evaluate at every point.
struct Campaign {
  ScenarioGrid grid;
  std::vector<ConfigSpec> configs;

  /// Total (point, repetition) cells: points() * base.runs.
  [[nodiscard]] std::size_t cells() const noexcept;
};

/// Parse the extended scenario-file text above into a Campaign, starting
/// from `base` for unspecified keys. Throws std::runtime_error naming the
/// offending line ("campaign line N: ... in '...'") on malformed input,
/// and validates every materialized grid point.
[[nodiscard]] Campaign parse_campaign(const std::string& text,
                                      Scenario base = {});

/// Load a campaign file (see parse_campaign). Throws std::runtime_error
/// on I/O failure.
[[nodiscard]] Campaign load_campaign(const std::string& path,
                                     Scenario base = {});

struct GridRunOptions {
  /// Stream each completed cell as one JSON record to this file (plus a
  /// leading header record); empty keeps results in memory only.
  std::string jsonl_path;
  /// Reuse the valid prefix of jsonl_path instead of recomputing it; see
  /// the resume contract above. A missing file degrades to a fresh run.
  bool resume = false;
  /// Worker override for the global queue (0 = default_thread_count()).
  std::size_t threads = 0;
  /// Backend of the out-of-order result spill (DESIGN.md section 7.5).
  /// `ram` is the default; `file` bounds the spill's RAM at
  /// spill_ram_budget_bytes however large the backlog grows. The cell
  /// layout is arithmetic in every case (O(points)). The choice cannot
  /// reach the output bytes or aggregates.
  StorageKind storage = StorageKind::Ram;
  /// Scratch directory for the file and mmap spills (empty: system temp
  /// dir).
  std::string storage_dir;
  /// Result payload the file-backed spill keeps resident in RAM.
  std::size_t spill_ram_budget_bytes = std::size_t{16} << 20;
  /// Cost model to steer the longest-first cell feed and refine from
  /// completed-cell timings. Null builds a fresh per-run model; a
  /// caller-owned model (must outlive the run and cover the same grid
  /// points) accumulates refinement across runs — the cross-process
  /// dealer threads one model through every block it hands out.
  CostModel* cost_model = nullptr;
};

/// Run every (point, repetition) cell of `points` x `configs` through one
/// global work queue and fold the cells into per-point statistics. The
/// aggregates are exactly what run_point would report for each scenario —
/// same seeds, same fold order — independent of thread count.
[[nodiscard]] std::vector<PointResult> run_grid(
    const std::vector<Scenario>& points, const std::vector<ConfigSpec>& configs,
    const GridRunOptions& options = {});

/// run_grid over the campaign's materialized grid points.
[[nodiscard]] std::vector<PointResult> run_campaign(
    const Campaign& campaign, const GridRunOptions& options = {});

// --- the shard fabric (DESIGN.md sections 7.4 and 12.3) ------------------
//
// A distributed campaign hands contiguous blocks of the flattened cell
// space [0, cells) to `workers` workers. Worker k streams each of its
// blocks' records — global cell indices, the exact single-process
// bytes — into its one shard file under a worker header, in block
// completion order. The dealing coordinator (exp/fabric.hpp) cuts
// cost-balanced blocks and deals them to idle workers; `--worker k/W`
// and `--deal static` run the one block shard_range(cells, {k, W}) per
// worker. Blocks may land in any order and a re-dealt block may appear
// in two files, so merge_deal_shards indexes records by cell, dedupes
// (duplicates are byte-identical: cells are deterministic in (point
// seed, rep)), and emits in global cell order — cmp-identical to the
// single-process artifact.

/// One worker of a distributed campaign: worker `index` of `count`.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;
};

/// Parse "<index>/<count>" (e.g. "1/4"); throws std::runtime_error on
/// malformed specs and on index >= count.
[[nodiscard]] ShardSpec parse_shard_spec(const std::string& text);

/// Contiguous global cell range [begin, end) of the shard: balanced
/// (sizes differ by at most one) and tiling [0, total_cells) exactly.
[[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(
    std::size_t total_cells, const ShardSpec& shard);

/// The worker's own JSONL file, derived from the final artifact path:
/// "out.jsonl" -> "out.shard1of4.jsonl".
[[nodiscard]] std::string shard_path(const std::string& jsonl_path,
                                     const ShardSpec& shard);

/// The campaign's materialized grid points (grid.point(i) for every i) —
/// the form the cost model and cell queue constructors take.
[[nodiscard]] std::vector<Scenario> campaign_points(const Campaign& campaign);

/// One contiguous block of global cells handed to a worker.
struct DealBlock {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< exclusive
};

/// Cut [0, queue.size()) into contiguous blocks tiling the cell space,
/// each carrying roughly 1/(workers * 8) of the model's total predicted
/// cost (never splitting a cell), returned longest-predicted-first —
/// the deal order that bounds the makespan tail by one block.
[[nodiscard]] std::vector<DealBlock> plan_deal_blocks(const CostModel& model,
                                                      const CellQueue& queue,
                                                      std::size_t workers);

/// Worker-side session: opens (or, with options.resume, adopts) the
/// worker's shard file, then appends one record per cell for every
/// block it runs. Each record line is flushed before run_block returns,
/// so an ack sent after it covers bytes that are actually in the file; a
/// torn line can only ever be the file's tail, which a resume truncates.
/// A block's cells already in this worker's file — adopted on resume or
/// computed by an earlier block — are skipped, never recomputed.
class DealWorker {
 public:
  DealWorker(std::vector<Scenario> points, std::vector<ConfigSpec> configs,
             std::size_t worker, std::size_t workers,
             const GridRunOptions& options);
  DealWorker(const DealWorker&) = delete;
  DealWorker& operator=(const DealWorker&) = delete;
  ~DealWorker();

  /// Valid records adopted from a resumed shard file (duplicates count).
  [[nodiscard]] std::size_t resumed_records() const noexcept;

  /// Compute the cells of [begin, end) this worker's file does not hold
  /// yet and append their records. Within the block cells run
  /// longest-predicted-first; records retire in cell order regardless.
  /// Throws on I/O failure (the coordinator treats a dead worker and a
  /// thrown worker alike: re-deal).
  void run_block(std::size_t begin, std::size_t end);

 private:
  std::vector<Scenario> points_;
  std::vector<ConfigSpec> configs_;
  GridRunOptions options_;
  CellQueue queue_;
  std::unique_ptr<CostModel> model_;
  std::vector<bool> held_;  ///< cells already in the shard file
  std::ofstream sink_;
  std::string path_;
  std::size_t resumed_records_ = 0;
};

/// Which cells the existing shard files of jsonl_path (for `workers`
/// workers) already hold; a missing file holds none. Validates every
/// file exactly as merge_deal_shards does — a resuming coordinator
/// deals only the cells no file covers.
[[nodiscard]] std::vector<bool> shard_coverage(
    const std::vector<Scenario>& points,
    const std::vector<ConfigSpec>& configs, std::size_t workers,
    const std::string& jsonl_path);

/// Reassemble `workers` shard files into the byte-identical
/// single-process artifact at jsonl_path, crash-atomically (the final
/// name is absent or complete, never truncated). Tolerates one
/// unterminated torn line per shard, dedupes re-dealt cells, and refuses
/// loudly — naming the file, or the first missing cell with a --resume
/// hint — when a shard is missing, foreign, corrupt or coverage is
/// incomplete; on failure no output is left behind.
void merge_deal_shards(const std::vector<Scenario>& points,
                       const std::vector<ConfigSpec>& configs,
                       std::size_t workers, const std::string& jsonl_path);

/// How much of a campaign a JSONL results file covers.
struct JsonlCoverage {
  std::size_t cells_present = 0;  ///< valid records (always a prefix)
  std::size_t cells_total = 0;    ///< campaign.cells()
  bool dropped_corrupt_tail = false;  ///< a truncated last record existed
};

/// Aggregate the valid prefix of a campaign results file into per-point
/// statistics without running anything. Points not yet reached have zero
/// repetition counts. Throws std::runtime_error when the file cannot be
/// read, its header does not match the campaign, or a record is corrupt
/// anywhere but the tail.
[[nodiscard]] std::vector<PointResult> summarize_jsonl(
    const Campaign& campaign, const std::string& path,
    JsonlCoverage* coverage = nullptr);

/// Per-point summary table: one row per grid point (label, repetitions,
/// baseline makespan in days, then each configuration's mean normalized
/// makespan; "-" for points with no data yet).
[[nodiscard]] std::string render_campaign_table(
    const Campaign& campaign, const std::vector<PointResult>& points);

}  // namespace coredis::exp
