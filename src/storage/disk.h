// DiskBackend: the storage seam every page lives behind.
//
// Two implementations exist. SimulatedDisk is an in-memory page store that
// *accounts* like a 1997 disk: the paper's measurements (Sparc Ultra I,
// Barracuda 4 GB disks) are I/O-bound; what SMAs buy is fewer pages touched,
// so we keep all pages in RAM but count every access, classify it as
// sequential/near/random, and map the counts to seconds through a
// parameterized disk model. FileDiskManager (file_disk.h) is a real
// pread/pwrite + fsync backend whose pages survive the process — the base
// of the durable stack (WAL + checkpoints + recovery, DESIGN.md §12).
//
// The backend is also the fault boundary. ReadPages/WritePage of *every*
// implementation consult the failpoints "disk.read" / "disk.write" (plus
// "disk.page_bitflip", which always flips a bit on delivery regardless of
// the armed kind) through the shared helpers on the base class, so tests can
// inject transient errors, permanent errors, and silent single-bit
// corruption identically against any backend (see util/fault.h). Every page
// carries an out-of-band CRC-32C stamped on write — modeling per-sector
// checksums real disks keep outside the 4 K payload, so SMA-file pages stay
// fully packed and the paper's file sizes hold. The buffer pool verifies the
// checksum on fetch and turns silent corruption into typed kCorruption
// errors.

#ifndef SMADB_STORAGE_DISK_H_
#define SMADB_STORAGE_DISK_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "storage/contention.h"
#include "storage/page.h"
#include "util/status.h"

namespace smadb::storage {

/// Identifies one backend file (a table heap, one SMA-file, an index...).
using FileId = uint32_t;

/// Invalid file sentinel.
inline constexpr FileId kInvalidFile = UINT32_MAX;

/// Time model of a late-90s SCSI disk (Seagate Barracuda 4GB class).
/// Three access classes:
///   sequential — the next page; streams at the transfer rate.
///   near       — a short forward skip within the same region
///                (skip-sequential scan of scattered qualifying buckets,
///                §2.3 "a sequential scan of the ambivalent pages");
///                pays a short track-to-track seek.
///   random     — everything else; pays the full average seek +
///                rotational delay.
struct DiskModel {
  double seek_ms = 8.0;            ///< average seek + rotational latency
  double short_seek_ms = 1.5;      ///< track-to-track class seek
  double transfer_mb_per_s = 9.0;  ///< sustained sequential bandwidth

  /// Seconds to service the given access counts.
  double Seconds(uint64_t sequential_pages, uint64_t near_pages,
                 uint64_t random_pages) const {
    const double bytes = static_cast<double>(sequential_pages + near_pages +
                                             random_pages) *
                         kPageSize;
    return bytes / (transfer_mb_per_s * 1024.0 * 1024.0) +
           static_cast<double>(near_pages) * short_seek_ms / 1000.0 +
           static_cast<double>(random_pages) * seek_ms / 1000.0;
  }
};

/// Forward skips up to this many pages (4 MB) count as "near" accesses.
inline constexpr int64_t kNearSeekWindowPages = 1024;

/// The longest run the buffer pool pins, and reads as one request: 32
/// pages, 128 KiB.
inline constexpr uint32_t kRunPages = 32;

/// Cumulative I/O counters.
struct IoStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t sequential_reads = 0;
  uint64_t near_reads = 0;
  uint64_t random_reads = 0;
  uint64_t sequential_writes = 0;
  uint64_t near_writes = 0;
  uint64_t random_writes = 0;
  /// Durability barriers honored (fsync class; always 0 on SimulatedDisk).
  uint64_t syncs = 0;

  /// Seconds the modeled disk would take for all recorded accesses.
  double ModeledSeconds(const DiskModel& model) const {
    return model.Seconds(sequential_reads + sequential_writes,
                         near_reads + near_writes,
                         random_reads + random_writes);
  }

  IoStats operator-(const IoStats& base) const {
    IoStats d;
    d.page_reads = page_reads - base.page_reads;
    d.page_writes = page_writes - base.page_writes;
    d.sequential_reads = sequential_reads - base.sequential_reads;
    d.near_reads = near_reads - base.near_reads;
    d.random_reads = random_reads - base.random_reads;
    d.sequential_writes = sequential_writes - base.sequential_writes;
    d.near_writes = near_writes - base.near_writes;
    d.random_writes = random_writes - base.random_writes;
    d.syncs = syncs - base.syncs;
    return d;
  }
};

/// Which concrete backend a DiskBackend pointer refers to.
enum class BackendKind {
  kSimulated,  ///< in-memory page store with 1997-disk accounting
  kFile,       ///< real files: pread/pwrite + fsync (FileDiskManager)
};

std::string_view BackendKindToString(BackendKind k);

/// Deterministic bit position for injected single-bit flips: a cheap mix of
/// (file, page) so repeated runs corrupt the same bit.
uint64_t FaultFlipBitOf(FileId file, uint32_t page_no);

/// Flips bit `bit` (modulo page bits) of `page` in place.
void FaultFlipBit(Page* page, uint64_t bit);

/// Abstract page store: the seam between the engine (buffer pool, tables,
/// SMA-files, WAL-driven recovery) and where pages physically live.
///
/// Contract shared by all implementations:
///  - files are created by name (unique, diagnostic) and addressed by id;
///  - pages are allocated at the tail (or from the free list after
///    FreePage) and addressed by number;
///  - every page has an out-of-band CRC-32C stamped on write;
///  - ReadPages/WritePage consult the "disk.read"/"disk.write"/
///    "disk.page_bitflip" failpoints page by page via the shared base
///    helpers;
///  - all accesses are recorded in IoStats with sequential/near/random
///    classification (the modeled 1997 disk reads the same counters for
///    every backend).
///
/// Thread-safe: the buffer pool reads pages from many threads at once, with
/// its own mutex released, and DDL (CreateFile), metric callbacks (stats,
/// FileBytes) and recovery helpers reach the backend directly too, so every
/// implementation guards its structures with the backend mutex `mu_`. One
/// ReadPages call makes its bookkeeping in one `mu_` hold — the bounds
/// check, the page-by-page failpoints, the stored CRCs and the run's
/// classification (one positioning access, then sequential pages, however
/// many threads read the same file) — and then transfers the bytes with
/// `mu_` released, so runs of many readers copy or read in parallel. The
/// transfer holds the reader-writer lock `transfer_mu_` shared; every
/// mutation of the pages or of the file table (WritePage, AllocatePage,
/// FreePage, CreateFile, RemoveFile, TruncateFile, CorruptPageForTesting)
/// takes it exclusively, before `mu_`, so a transfer never sees a page
/// change under it or its stored CRC. No other engine mutex is taken while
/// either is held.
class DiskBackend {
 public:
  DiskBackend() = default;
  virtual ~DiskBackend() = default;

  DiskBackend(const DiskBackend&) = delete;
  DiskBackend& operator=(const DiskBackend&) = delete;

  virtual BackendKind kind() const = 0;
  std::string_view kind_name() const { return BackendKindToString(kind()); }

  /// Creates an empty file and returns its id. Names are for diagnostics and
  /// recovery manifests and must be unique and non-empty. Ids of removed
  /// files are reused, lowest first.
  virtual util::Result<FileId> CreateFile(std::string name) = 0;

  /// Looks up a file by name.
  virtual util::Result<FileId> FindFile(std::string_view name) const = 0;

  /// Removes a file: drops its pages and frees its *name*. The id becomes a
  /// tombstone — invisible to FindFile, rejected by page operations — until
  /// a later CreateFile reassigns it. Used by recovery to clear orphan
  /// derived files (SMA-files a crash left behind without a manifest entry);
  /// live files are owned by their table / SMA objects and never removed.
  virtual util::Status RemoveFile(FileId file) = 0;

  /// Appends a zeroed page to `file` (reusing a freed page when one exists);
  /// returns its page number.
  virtual util::Result<uint32_t> AllocatePage(FileId file) = 0;

  /// Returns page `page_no` of `file` to the allocator's free list. The
  /// page stays addressable (zeroed) until reallocated; freeing twice fails
  /// with kInvalidArgument.
  virtual util::Status FreePage(FileId file, uint32_t page_no) = 0;

  /// Reads the `n` consecutive pages first .. first+n-1 of `file` into
  /// `*out[0]` .. `*out[n-1]` as one request, recording each access. When
  /// `crcs` is non-null, `crcs[i]` receives the stored checksum of page
  /// first+i, read in the same mutex hold. The failpoints are consulted page
  /// by page, as if each page were its own read: a fault on page first+k
  /// fails the call with an error naming that page, after pages
  /// first .. first+k-1 were delivered and recorded; `*delivered` (when
  /// non-null) receives the count of delivered pages, so a caller can
  /// resume at the failed page.
  virtual util::Status ReadPages(FileId file, uint32_t first, uint32_t n,
                                 Page* const* out, uint32_t* crcs,
                                 uint32_t* delivered) = 0;

  /// Reads page `page_no` of `file` into `*out`: ReadPages with n = 1.
  util::Status ReadPage(FileId file, uint32_t page_no, Page* out) {
    return ReadPages(file, page_no, 1, &out, nullptr, nullptr);
  }

  /// Writes `page` to `file` at `page_no`, recording the access.
  virtual util::Status WritePage(FileId file, uint32_t page_no,
                                 const Page& page) = 0;

  /// Drops all pages of a file (keeps the id valid with zero pages).
  virtual util::Status TruncateFile(FileId file) = 0;

  /// Durability barrier: everything written so far is on stable storage when
  /// this returns OK. A no-op (still counted) on the simulated backend.
  virtual util::Status Sync() = 0;

  /// Number of pages currently allocated in `file` (including freed ones
  /// not yet reused).
  virtual util::Result<uint32_t> NumPages(FileId file) const = 0;

  virtual const std::string& FileName(FileId file) const = 0;
  virtual size_t NumFiles() const = 0;

  /// CRC-32C stamped when `page_no` was last written (out-of-band, like a
  /// disk's per-sector checksum). The buffer pool compares it against the
  /// checksum of the delivered bytes to detect silent corruption.
  virtual util::Result<uint32_t> PageChecksum(FileId file,
                                              uint32_t page_no) const = 0;

  /// Flips one stored bit *without* restamping the checksum — simulates
  /// at-rest media corruption for tests. `bit` indexes into the page
  /// (modulo page bits).
  virtual util::Status CorruptPageForTesting(FileId file, uint32_t page_no,
                                             uint64_t bit) = 0;

  /// Total bytes across the given file.
  virtual uint64_t FileBytes(FileId file) const = 0;

  /// Snapshot of the counters (copy: metric readers race with I/O threads).
  IoStats stats() const {
    const auto lock = Lock();
    return stats_;
  }
  void ResetStats() {
    const auto lock = Lock();
    stats_ = IoStats();
  }

  /// Acquires of the backend mutex that had to block, and their wait.
  ContentionStats mutex_contention() const { return mu_contention_.stats(); }

  /// Forgets per-file head positions so the next access of every file
  /// classifies independently of earlier runs (fair A/B timing).
  virtual void ResetAccessPositions() = 0;

 protected:
  /// Consults the "disk.read" failpoints for each page of the run
  /// first .. first+n-1, in order, up to the first transient/permanent
  /// fault, whose injected error (kIOError, naming its page) is returned.
  /// `*clean` receives the number of pages before that fault (n when none
  /// fired): the pages to deliver. `*flips` lists the run offsets, among
  /// them, whose delivered copy must have a bit flipped (kBitFlip or an
  /// armed "disk.page_bitflip").
  util::Status ConsultReadFaults(const std::string& file_name, uint32_t first,
                                 uint32_t n, uint32_t* clean,
                                 std::vector<uint32_t>* flips);

  /// Same for "disk.write": on OK, `*flip_stored` asks the backend to flip
  /// a bit in the *stored* bytes after stamping the intended checksum (the
  /// next verified read detects the silent corruption).
  util::Status ConsultWriteFaults(const std::string& file_name,
                                  uint32_t page_no, bool* flip_stored);

  /// Consults the "disk.sync" failpoint at the top of every backend's
  /// durability barrier (kill-point and ENOSPC scripting for Sync itself).
  util::Status ConsultSyncFaults();

  /// Classifies one access against the file's last touched page and bumps
  /// the matching IoStats counters. `*last` is updated to `page_no`.
  /// Caller must hold `mu_`.
  void AccountRead(int64_t* last, uint32_t page_no);
  void AccountWrite(int64_t* last, uint32_t page_no);

  /// Locks `mu_`, counting the acquire when it has to block.
  std::unique_lock<std::mutex> Lock() const {
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    mu_contention_.Acquire(lock);
    return lock;
  }

  /// What every mutation holds: `transfer_mu_` exclusively, then `mu_`.
  struct MutationLock {
    std::unique_lock<std::shared_mutex> transfers;
    std::unique_lock<std::mutex> state;
  };
  MutationLock LockForMutation() {
    std::unique_lock<std::shared_mutex> transfers(transfer_mu_);
    return {std::move(transfers), Lock()};
  }

  /// Held shared by ReadPages from before its bookkeeping until its bytes
  /// are transferred, and exclusively by every mutation: a page's bytes,
  /// its stored CRC and the file table stay fixed under a transfer. First
  /// in the backend's lock order: transfer_mu_ -> mu_.
  mutable std::shared_mutex transfer_mu_;
  /// Guards `stats_` and every implementation's file table. Leaf lock: no
  /// other engine mutex is acquired while held.
  mutable std::mutex mu_;
  mutable ContentionCounter mu_contention_;
  IoStats stats_;
};

/// The simulated disk: an in-memory DiskBackend with 1997-disk accounting.
/// All smadb paper experiments run on this backend.
class SimulatedDisk final : public DiskBackend {
 public:
  SimulatedDisk() = default;

  BackendKind kind() const override { return BackendKind::kSimulated; }

  util::Result<FileId> CreateFile(std::string name) override;
  util::Result<FileId> FindFile(std::string_view name) const override;
  util::Status RemoveFile(FileId file) override;
  util::Result<uint32_t> AllocatePage(FileId file) override;
  util::Status FreePage(FileId file, uint32_t page_no) override;
  util::Status ReadPages(FileId file, uint32_t first, uint32_t n,
                         Page* const* out, uint32_t* crcs,
                         uint32_t* delivered) override;
  util::Status WritePage(FileId file, uint32_t page_no,
                         const Page& page) override;
  util::Status TruncateFile(FileId file) override;
  util::Status Sync() override;
  util::Result<uint32_t> NumPages(FileId file) const override;

  // Deque keeps File references stable across CreateFile, so the returned
  // name cannot dangle when DDL races a diagnostic path.
  const std::string& FileName(FileId file) const override {
    const auto lock = Lock();
    return files_[file].name;
  }
  size_t NumFiles() const override {
    const auto lock = Lock();
    return files_.size();
  }

  util::Result<uint32_t> PageChecksum(FileId file,
                                      uint32_t page_no) const override;
  util::Status CorruptPageForTesting(FileId file, uint32_t page_no,
                                     uint64_t bit) override;

  uint64_t FileBytes(FileId file) const override {
    const auto lock = Lock();
    return static_cast<uint64_t>(files_[file].pages.size()) * kPageSize;
  }

  void ResetAccessPositions() override {
    const auto lock = Lock();
    for (File& f : files_) {
      f.last_read = -2;
      f.last_write = -2;
    }
  }

 private:
  struct File {
    std::string name;
    std::vector<std::unique_ptr<Page>> pages;
    // Out-of-band CRC-32C per page, parallel to `pages`.
    std::vector<uint32_t> checksums;
    // Pages returned by FreePage, reusable by AllocatePage.
    std::vector<uint32_t> free_pages;
    // Last page touched, for sequential/random classification.
    int64_t last_read = -2;
    int64_t last_write = -2;
  };

  /// Checks that pages page_no .. page_no+n-1 exist. Caller must hold
  /// `mu_`.
  util::Status CheckBounds(FileId file, uint32_t page_no,
                           uint32_t n = 1) const;

  std::deque<File> files_;
};

}  // namespace smadb::storage

#endif  // SMADB_STORAGE_DISK_H_
