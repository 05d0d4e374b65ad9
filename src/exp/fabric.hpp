#pragma once

/// \file fabric.hpp
/// The local shard-fabric coordinator (DESIGN.md sections 7.4 and 12.3):
/// fork W workers, deal them cell blocks over pipes — a private command
/// pipe each ("deal <begin> <end>\n", "done\n") and one shared ack pipe
/// ("<worker> <begin> <end> <seconds>\n", one write under PIPE_BUF) —
/// survive worker deaths, and merge the shard files into the
/// byte-identical single-process artifact. Without fork() the blocks run
/// in-process, which preserves every byte.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exp/campaign.hpp"

namespace coredis::exp {

/// A forked worker's end of the deal protocol.
struct WorkerLink {
  std::size_t index = 0;
  std::size_t workers = 1;
  int attempt = 1;         ///< 1 at launch, 2 and up for respawns
  GridRunOptions options;  ///< fair thread share; resume on respawns
  int command_fd = -1;
  int ack_fd = -1;
  bool done = false;  ///< "done" received

  /// Wait for the next command: true with a dealt block; false on
  /// "done", on a malformed command, or when the coordinator vanished.
  bool next(DealBlock& block);
  /// Write one ack line verbatim, in a single write.
  bool send(const std::string& line) const;
};

/// What a forked worker runs; the return value is its exit status.
using WorkerBody = std::function<int(const std::vector<Scenario>& points,
                                     const std::vector<ConfigSpec>& configs,
                                     WorkerLink& link)>;

/// The production worker body: a DealWorker running every dealt block,
/// acking each once its records are flushed; exits 0 after "done".
int serve_dealt_blocks(const std::vector<Scenario>& points,
                       const std::vector<ConfigSpec>& configs,
                       WorkerLink& link);

struct FabricOptions {
  std::size_t workers = 1;
  /// Deal the W equal blocks shard_range(cells, {k, W}) instead of the
  /// cost-balanced plan_deal_blocks ones (`--deal static`).
  bool static_blocks = false;
  bool keep_shards = false;  ///< keep the shard files after the merge
  /// Test seam, not a user option: the forked workers' body (empty:
  /// serve_dealt_blocks).
  WorkerBody worker_body;
};

struct FabricReport {
  int signal = 0;  ///< nonzero: stopped by SIGINT/SIGTERM, nothing merged
  std::size_t cells_resumed = 0;  ///< cells the shard files already held
  std::size_t cells_dealt = 0;    ///< cells left to compute
  std::size_t blocks = 0;         ///< blocks those were cut into
  std::size_t redeals = 0;        ///< blocks re-dealt after a worker died
  std::size_t respawns = 0;       ///< workers respawned with resume
};

/// Run `campaign` on fabric.workers forked workers and merge into
/// base.jsonl_path. Blocks go longest-predicted-first to idle workers,
/// re-ranked as acks refine the cost model; a dead worker's un-acked
/// block is re-dealt and the worker respawned with resume (3 attempts
/// each), and only all workers dead with work pending aborts. With
/// base.resume only the cells no existing shard file holds are dealt.
/// Every exit — success, signal, or a throw (malformed ack, poll, pipe
/// or fork failure, every worker dying) — reaps every worker, sweeps its
/// scratch files, closes the pipes and restores the signal
/// dispositions; shard files survive any failure.
FabricReport run_fabric(const Campaign& campaign, const GridRunOptions& base,
                        const FabricOptions& fabric);

}  // namespace coredis::exp
