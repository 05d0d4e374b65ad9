#include "exp/storage.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#define COREDIS_STORAGE_HAVE_MMAP 1
#endif

#include "util/contracts.hpp"

namespace coredis::exp {

namespace {

namespace fs = std::filesystem;

/// Distinguishes the scratch files of cooperating worker *processes*
/// sharing one directory; forked children must not alias their parent,
/// so a static's address is not enough — use the pid where there is one.
std::uint64_t process_tag() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<std::uint64_t>(::getpid());
#else
  static const int anchor = 0;
  return static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(&anchor));
#endif
}

/// The name of a fresh scratch file under `dir` (the temp directory when
/// empty). Names carry the process tag and a process-wide sequence number
/// so concurrent workers (and concurrent stores within one worker) never
/// collide.
fs::path scratch_path(const std::string& dir, const char* tag) {
  static std::atomic<std::uint64_t> sequence{0};
  const fs::path parent =
      dir.empty() ? fs::temp_directory_path() : fs::path(dir);
  return parent / ("coredis_" + std::string(tag) + "_" +
                   std::to_string(process_tag()) + "_" +
                   std::to_string(sequence.fetch_add(1)) + ".bin");
}

/// A self-deleting scratch file under `dir`, opened read+write. On POSIX
/// its name is unlinked right after it is opened: the open stream and
/// descriptor keep the file alive, so a process that dies without
/// unwinding (a signal, abort, _exit) leaves nothing behind. Elsewhere
/// the destructor removes it.
class ScratchFile {
 public:
  ScratchFile(const std::string& dir, const char* tag)
      : path_(scratch_path(dir, tag)) {
    stream_.open(path_, std::ios::binary | std::ios::in | std::ios::out |
                            std::ios::trunc);
    if (!stream_)
      throw std::runtime_error("storage: cannot create scratch file " +
                               path_.string());
#if defined(COREDIS_STORAGE_HAVE_MMAP)
    // A second descriptor on the same file: reset() truncates through it
    // once the name is gone.
    fd_ = ::open(path_.c_str(), O_RDWR);
    if (fd_ < 0)
      throw std::runtime_error("storage: cannot reopen scratch file " +
                               path_.string() + ": " + std::strerror(errno));
    ::unlink(path_.c_str());
#endif
  }

  ~ScratchFile() {
    stream_.close();
#if defined(COREDIS_STORAGE_HAVE_MMAP)
    ::close(fd_);
#else
    std::error_code ignored;
    fs::remove(path_, ignored);
#endif
  }

  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  [[nodiscard]] std::fstream& stream() { return stream_; }
  [[nodiscard]] const fs::path& path() const { return path_; }

  /// Drop the file back to zero bytes (backlog fully drained): the next
  /// append starts over, so disk usage is bounded by the peak backlog.
  void reset() {
    stream_.flush();
#if defined(COREDIS_STORAGE_HAVE_MMAP)
    const bool failed = ::ftruncate(fd_, 0) != 0;
#else
    std::error_code error;
    fs::resize_file(path_, 0, error);
    const bool failed = static_cast<bool>(error);
#endif
    if (failed)
      throw std::runtime_error("storage: cannot truncate scratch file " +
                               path_.string());
    stream_.clear();
  }

 private:
  fs::path path_;
  std::fstream stream_;
#if defined(COREDIS_STORAGE_HAVE_MMAP)
  int fd_ = -1;
#endif
};

#if defined(COREDIS_STORAGE_HAVE_MMAP)

/// A self-deleting scratch file mapped shared read-write, grown by
/// ftruncate + remap in fixed chunks. Same naming scheme as ScratchFile,
/// and like it unlinked right after it is opened (the descriptor keeps
/// it alive), so the coordinator's crash sweep only has to cover the
/// instant between the two; unlike ScratchFile it hands out raw bytes,
/// not a stream — readers and writers memcpy against `data()`.
class MmapScratch {
 public:
  static constexpr std::size_t kChunk = std::size_t{1} << 20;  // 1 MiB

  MmapScratch(const std::string& dir, const char* tag)
      : path_(scratch_path(dir, tag)) {
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
    if (fd_ < 0)
      throw std::runtime_error("storage: cannot create mmap scratch file " +
                               path_.string() + ": " + std::strerror(errno));
    ::unlink(path_.c_str());
  }

  ~MmapScratch() {
    if (map_ != nullptr) ::munmap(map_, capacity_);
    if (fd_ >= 0) ::close(fd_);
  }

  MmapScratch(const MmapScratch&) = delete;
  MmapScratch& operator=(const MmapScratch&) = delete;

  [[nodiscard]] char* data() noexcept { return static_cast<char*>(map_); }
  [[nodiscard]] const char* data() const noexcept {
    return static_cast<const char*>(map_);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const fs::path& path() const noexcept { return path_; }

  /// Grow the file (and the mapping) to hold at least `bytes`. Growth is
  /// chunked so a streaming writer remaps O(total/chunk) times, not per
  /// record. Existing bytes keep their content and their address only
  /// within a mapping generation — callers must not hold pointers into
  /// `data()` across ensure() calls.
  void ensure(std::size_t bytes) {
    if (bytes <= capacity_) return;
    const std::size_t grown = ((bytes + kChunk - 1) / kChunk) * kChunk;
    if (::ftruncate(fd_, static_cast<off_t>(grown)) != 0)
      throw std::runtime_error("storage: cannot grow mmap scratch file " +
                               path_.string() + ": " + std::strerror(errno));
    if (map_ != nullptr) ::munmap(map_, capacity_);
    map_ = ::mmap(nullptr, grown, PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
    if (map_ == MAP_FAILED) {
      map_ = nullptr;
      capacity_ = 0;
      throw std::runtime_error("storage: cannot map scratch file " +
                               path_.string() + ": " + std::strerror(errno));
    }
    capacity_ = grown;
  }

  /// Drop the file and the mapping back to zero (backlog fully drained):
  /// disk usage stays bounded by the peak backlog.
  void reset() {
    if (map_ != nullptr) ::munmap(map_, capacity_);
    map_ = nullptr;
    capacity_ = 0;
    if (::ftruncate(fd_, 0) != 0)
      throw std::runtime_error("storage: cannot truncate mmap scratch file " +
                               path_.string() + ": " + std::strerror(errno));
  }

 private:
  fs::path path_;
  int fd_ = -1;
  void* map_ = nullptr;
  std::size_t capacity_ = 0;
};

#endif  // COREDIS_STORAGE_HAVE_MMAP

// --- result spills --------------------------------------------------------

class RamResultSpill final : public ResultSpill {
 public:
  void put(std::size_t index, std::string_view record) override {
    resident_ += record.size();
    pending_.emplace(index, std::string(record));
  }

  [[nodiscard]] bool take(std::size_t index, std::string& out) override {
    const auto it = pending_.find(index);
    if (it == pending_.end()) return false;
    out = std::move(it->second);
    resident_ -= out.size();
    pending_.erase(it);
    return true;
  }

  [[nodiscard]] std::size_t pending() const noexcept override {
    return pending_.size();
  }

  [[nodiscard]] std::size_t resident_bytes() const noexcept override {
    return resident_;
  }

 private:
  std::map<std::size_t, std::string> pending_;
  std::size_t resident_ = 0;
};

/// Record payloads beyond the RAM budget go to a scratch file (append;
/// reads are random); what stays in RAM is a small (offset, size) index
/// per spilled record plus at most `budget` bytes of hot payload. The
/// scratch file is cut back to zero whenever the backlog fully drains,
/// so its size is bounded by the worst backlog, not the whole run.
class FileResultSpill final : public ResultSpill {
 public:
  FileResultSpill(const std::string& dir, std::size_t ram_budget_bytes)
      : scratch_(dir, "spill"), budget_(ram_budget_bytes) {}

  void put(std::size_t index, std::string_view record) override {
    if (resident_ + record.size() <= budget_) {
      resident_ += record.size();
      hot_.emplace(index, std::string(record));
      return;
    }
    std::fstream& out = scratch_.stream();
    out.seekp(static_cast<std::streamoff>(end_));
    out.write(record.data(), static_cast<std::streamsize>(record.size()));
    out.flush();
    if (!out)
      throw std::runtime_error("storage: cannot append to spill file " +
                               scratch_.path().string());
    spilled_.emplace(index, Extent{end_, record.size()});
    end_ += record.size();
  }

  [[nodiscard]] bool take(std::size_t index, std::string& out) override {
    if (const auto hot = hot_.find(index); hot != hot_.end()) {
      out = std::move(hot->second);
      resident_ -= out.size();
      hot_.erase(hot);
      reset_if_drained();
      return true;
    }
    const auto cold = spilled_.find(index);
    if (cold == spilled_.end()) return false;
    out.resize(cold->second.size);
    std::fstream& in = scratch_.stream();
    in.seekg(static_cast<std::streamoff>(cold->second.offset));
    in.read(out.data(), static_cast<std::streamsize>(out.size()));
    if (!in)
      throw std::runtime_error("storage: cannot read back spill record from " +
                               scratch_.path().string());
    spilled_.erase(cold);
    reset_if_drained();
    return true;
  }

  [[nodiscard]] std::size_t pending() const noexcept override {
    return hot_.size() + spilled_.size();
  }

  [[nodiscard]] std::size_t resident_bytes() const noexcept override {
    return resident_;
  }

 private:
  struct Extent {
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  void reset_if_drained() {
    if (end_ != 0 && spilled_.empty()) {
      scratch_.reset();
      end_ = 0;
    }
  }

  ScratchFile scratch_;
  std::size_t budget_;
  std::map<std::size_t, std::string> hot_;
  std::map<std::size_t, Extent> spilled_;
  std::size_t resident_ = 0;
  std::size_t end_ = 0;  ///< append offset (== bytes live in the scratch file)
};

#if defined(COREDIS_STORAGE_HAVE_MMAP)

/// Every record payload lives in the mapping; RAM holds only the
/// (offset, size) index. Appends memcpy into the mapped tail (growing
/// by chunked ftruncate + remap), takes memcpy back out, and a fully
/// drained backlog truncates the file — the FileResultSpill contract
/// without the seek/read/write syscall per record, and with residency
/// delegated to the page cache instead of a fixed byte budget.
class MmapResultSpill final : public ResultSpill {
 public:
  explicit MmapResultSpill(const std::string& dir)
      : scratch_(dir, "spill_mmap") {}

  void put(std::size_t index, std::string_view record) override {
    scratch_.ensure(end_ + record.size());
    // An empty record may arrive before the first mapping exists, and
    // memcpy from or to a null pointer is undefined even for 0 bytes.
    if (!record.empty())
      std::memcpy(scratch_.data() + end_, record.data(), record.size());
    pending_.emplace(index, Extent{end_, record.size()});
    end_ += record.size();
  }

  [[nodiscard]] bool take(std::size_t index, std::string& out) override {
    const auto it = pending_.find(index);
    if (it == pending_.end()) return false;
    out.assign(scratch_.data() + it->second.offset, it->second.size);
    pending_.erase(it);
    if (pending_.empty() && end_ != 0) {
      scratch_.reset();
      end_ = 0;
    }
    return true;
  }

  [[nodiscard]] std::size_t pending() const noexcept override {
    return pending_.size();
  }

  /// Payload bytes live in the page cache behind the mapping, not on
  /// the heap — by the "resident in RAM" contract this backend holds 0.
  [[nodiscard]] std::size_t resident_bytes() const noexcept override {
    return 0;
  }

 private:
  struct Extent {
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  MmapScratch scratch_;
  std::map<std::size_t, Extent> pending_;
  std::size_t end_ = 0;  ///< append offset (== payload bytes in the mapping)
};

#endif  // COREDIS_STORAGE_HAVE_MMAP

[[noreturn, maybe_unused]] void throw_no_mmap() {
  throw std::runtime_error(
      "storage backend 'mmap' needs POSIX mmap, which this platform "
      "lacks (ram|file)");
}

}  // namespace

StorageKind parse_storage_kind(const std::string& text) {
  if (text == "ram") return StorageKind::Ram;
  if (text == "file") return StorageKind::File;
  if (text == "mmap") {
#if defined(COREDIS_STORAGE_HAVE_MMAP)
    return StorageKind::Mmap;
#else
    throw_no_mmap();
#endif
  }
  throw std::runtime_error("unknown storage backend '" + text +
                           "' (ram|file|mmap)");
}

const char* to_string(StorageKind kind) noexcept {
  switch (kind) {
    case StorageKind::File: return "file";
    case StorageKind::Mmap: return "mmap";
    case StorageKind::Ram: break;
  }
  return "ram";
}

CellQueue::CellQueue(const std::vector<std::size_t>& runs_per_point) {
  ends_.reserve(runs_per_point.size());
  std::size_t end = 0;
  for (const std::size_t runs : runs_per_point) ends_.push_back(end += runs);
}

CellRef CellQueue::at(std::size_t index) const {
  COREDIS_EXPECTS(index < size());
  // The first point whose cells end past `index`; zero-run points end
  // where their predecessor does, so they are never found.
  const auto it = std::upper_bound(ends_.begin(), ends_.end(), index);
  const auto point = static_cast<std::size_t>(it - ends_.begin());
  return {point, index - (point == 0 ? 0 : ends_[point - 1])};
}

std::unique_ptr<CellQueue> make_cell_queue(
    StorageKind /*kind*/, const std::vector<std::size_t>& runs_per_point) {
  return std::make_unique<CellQueue>(runs_per_point);
}

std::unique_ptr<ResultSpill> make_result_spill(StorageKind kind,
                                               const std::string& dir,
                                               std::size_t ram_budget_bytes) {
  if (kind == StorageKind::File)
    return std::make_unique<FileResultSpill>(dir, ram_budget_bytes);
  if (kind == StorageKind::Mmap) {
#if defined(COREDIS_STORAGE_HAVE_MMAP)
    return std::make_unique<MmapResultSpill>(dir);
#else
    throw_no_mmap();
#endif
  }
  return std::make_unique<RamResultSpill>();
}

}  // namespace coredis::exp
