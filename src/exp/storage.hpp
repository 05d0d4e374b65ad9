#pragma once

/// \file storage.hpp
/// The cell layout and the pluggable result-spill storage of grid/shard
/// runs (DESIGN.md section 7.5).
///
/// A campaign worker holds two data structures that grow with the grid:
/// the *cell queue* (the (point, repetition) layout of every cell the run
/// will execute) and the *result spill* (the serialized records of cells
/// that finished out of order, held back until the in-order committer can
/// append them).
///
/// The cell queue is arithmetic. Point i contributes runs_per_point[i]
/// consecutive cells, so the layout is the prefix sums of the repetition
/// counts: O(points) memory whatever the grid's size, no scratch file and
/// no lock.
///
/// The spill hides behind an interface with interchangeable backends, the
/// way layered search engines stack `swap_*` implementations behind one
/// contract; the storage kind selects only this backend:
///
///  * `ram`  — every pending record in memory, O(backlog bytes). The
///    default.
///  * `file` — bounded RAM: at most `ram_budget_bytes` of record payload
///    stays resident and the rest is appended to a scratch file (record
///    payloads on disk, a small offset index in RAM), truncated whenever
///    the backlog fully drains.
///  * `mmap` — bounded *heap* (POSIX only): every payload lives in a
///    scratch file mapped shared read-write; record round-trips are
///    memcpy against the mapping, capacity grows by ftruncate + remap in
///    1 MiB chunks, and the kernel's page cache decides what is resident.
///
/// The backend choice cannot reach any output: spills return the same
/// bytes, so a grid run's JSONL artifact and aggregates are
/// byte-identical across backends (locked by tests/storage_test.cpp).
/// Scratch files live in `dir` (defaulting to the system temp directory).
/// On POSIX their names are unlinked as soon as they are opened, so even
/// a process killed mid-run leaves none behind; elsewhere they are
/// removed on destruction.
///
/// Thread safety: `CellQueue::at` is const and safe to call concurrently.
/// `ResultSpill` is *externally synchronized* — the in-order committer
/// already serializes commits under its mutex, so the spill does not pay
/// for a second lock.

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace coredis::exp {

/// Backend selector for the result spill ("ram" | "file" | "mmap").
enum class StorageKind { Ram, File, Mmap };

/// Parse "ram" / "file" / "mmap" (used by --storage flags). Throws
/// std::runtime_error naming the accepted values on anything else, and
/// for "mmap" on platforms without POSIX mmap.
[[nodiscard]] StorageKind parse_storage_kind(const std::string& text);
[[nodiscard]] const char* to_string(StorageKind kind) noexcept;

/// One cell of the flattened grid: which scenario point it evaluates and
/// which Monte-Carlo repetition it is.
struct CellRef {
  std::size_t point = 0;
  std::size_t rep = 0;
};

/// The flattened (point, repetition) layout of a run, cell index ->
/// CellRef: point i contributes runs_per_point[i] consecutive cells.
/// Stored as the prefix sums of the repetition counts, so a lookup is an
/// upper_bound plus a subtraction. Immutable once built.
class CellQueue {
 public:
  explicit CellQueue(const std::vector<std::size_t>& runs_per_point);
  [[nodiscard]] CellRef at(std::size_t index) const;
  [[nodiscard]] std::size_t size() const noexcept {
    return ends_.empty() ? 0 : ends_.back();
  }

 private:
  std::vector<std::size_t> ends_;  ///< one past each point's last cell
};

/// Holds byte records keyed by cell index until the committer drains
/// them in order. put/take round-trip the exact bytes.
class ResultSpill {
 public:
  virtual ~ResultSpill() = default;
  /// Store `record` under `index` (indices are unique until taken).
  virtual void put(std::size_t index, std::string_view record) = 0;
  /// Remove the record at `index` into `out`; false when absent.
  [[nodiscard]] virtual bool take(std::size_t index, std::string& out) = 0;
  /// Records currently held.
  [[nodiscard]] virtual std::size_t pending() const noexcept = 0;
  /// Bytes of record payload currently resident in RAM (diagnostic; the
  /// file backend keeps this at or under its budget).
  [[nodiscard]] virtual std::size_t resident_bytes() const noexcept = 0;
};

/// CellQueue(runs_per_point) behind a pointer; the kind is ignored (the
/// layout has one form). Kept only because coredis_bench calls it.
[[nodiscard]] std::unique_ptr<CellQueue> make_cell_queue(
    StorageKind kind, const std::vector<std::size_t>& runs_per_point);

/// Build a result spill. The file backend keeps at most
/// `ram_budget_bytes` of payload in RAM and spills the rest under `dir`;
/// the mmap backend puts every payload in its mapping under `dir` and
/// ignores the budget (the page cache is the budget); the ram backend
/// ignores both knobs.
[[nodiscard]] std::unique_ptr<ResultSpill> make_result_spill(
    StorageKind kind, const std::string& dir = {},
    std::size_t ram_budget_bytes = std::size_t{16} << 20);

}  // namespace coredis::exp
