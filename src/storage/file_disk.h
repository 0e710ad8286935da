// FileDiskManager: the durable DiskBackend — real files, pread/pwrite,
// fsync.
//
// On-disk layout (inside one storage directory):
//
//   superblock.smadb   text manifest of the backend: one line per file
//                      mapping id -> name plus the page free list (removed
//                      files keep their id as a "free <id>" tombstone line
//                      until CreateFile reuses it). Written atomically
//                      (tmp + rename + directory fsync) on
//                      CreateFile/RemoveFile/TruncateFile/Sync.
//   seg<id>.pages      the pages of file <id>, a flat array of 4 K pages.
//   seg<id>.crc        CRC-32C sidecar, 4 bytes per page, parallel to
//                      seg<id>.pages — the out-of-band checksum the
//                      DiskBackend contract requires without stealing page
//                      payload (the paper's SMA-file sizes stay exact).
//
// Crash behavior: the number of pages in a file is *derived from the segment
// file size* at Open (torn tail pages are truncated away), so the superblock
// never needs to be crash-consistent about sizes — it only has to name files
// and carry the free list, both of which are re-persisted at every Sync
// (= checkpoint). Free-list entries lost to a crash merely leak zeroed pages
// until the next checkpoint rewrites the superblock. Orphan segment files
// (created after the last superblock write) are clobbered with O_TRUNC when
// their id is reused.
//
// Fault injection: ReadPages/WritePage route through the same
// "disk.read"/"disk.write"/"disk.page_bitflip" failpoints as SimulatedDisk
// (shared base-class helpers), so the whole fault matrix runs identically
// against real files.

#ifndef SMADB_STORAGE_FILE_DISK_H_
#define SMADB_STORAGE_FILE_DISK_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "storage/disk.h"

namespace smadb::storage {

/// Durable page store over a directory of per-file segments. See file
/// comment for the layout and crash contract. Thread-safe, like every
/// DiskBackend: all state is behind the backend mutex, and ReadPages
/// issues its preadv after releasing it, under the shared transfer lock
/// that every mutation takes exclusively.
class FileDiskManager final : public DiskBackend {
 public:
  /// Opens (or creates) the backend rooted at `directory`. An existing
  /// superblock is loaded and every listed segment re-attached, with page
  /// counts derived from segment sizes.
  static util::Result<std::unique_ptr<FileDiskManager>> Open(
      std::string directory);

  ~FileDiskManager() override;

  BackendKind kind() const override { return BackendKind::kFile; }

  util::Result<FileId> CreateFile(std::string name) override;
  util::Result<FileId> FindFile(std::string_view name) const override;
  util::Status RemoveFile(FileId file) override;
  util::Result<uint32_t> AllocatePage(FileId file) override;
  util::Status FreePage(FileId file, uint32_t page_no) override;
  /// One preadv per run (more only on a short read), outside `mu_`.
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
    return static_cast<uint64_t>(files_[file].num_pages) * kPageSize;
  }

  void ResetAccessPositions() override;

  const std::string& directory() const { return directory_; }

 private:
  struct File {
    std::string name;
    int pages_fd = -1;
    int crc_fd = -1;
    uint32_t num_pages = 0;
    // In-memory copy of the CRC sidecar, parallel to the pages.
    std::vector<uint32_t> checksums;
    std::vector<uint32_t> free_pages;
    // Anything written since the last fsync of this segment.
    bool dirty = false;
    int64_t last_read = -2;
    int64_t last_write = -2;
  };

  explicit FileDiskManager(std::string directory);

  /// Checks that pages page_no .. page_no+n-1 exist. Caller must hold
  /// `mu_` (as for every private helper below).
  util::Status CheckBounds(FileId file, uint32_t page_no,
                           uint32_t n = 1) const;

  /// Opens (creating if needed) the two segment fds of `f` for file id `id`.
  /// `truncate` clobbers any orphan left by a crash.
  util::Status OpenSegment(FileId id, File* f, bool truncate);

  /// Loads the superblock and re-attaches every listed segment.
  util::Status Load();

  /// Writes the superblock atomically (tmp + rename + dir fsync).
  util::Status WriteSuperblock();

  /// Writes `page` and its checksum at `page_no` of file `id` without fault
  /// consultation or accounting (allocation zero-fill, corruption helper).
  util::Status RawWrite(FileId id, File& f, uint32_t page_no, const Page& page,
                        uint32_t crc);

  std::string directory_;
  int dir_fd_ = -1;
  std::deque<File> files_;
};

}  // namespace smadb::storage

#endif  // SMADB_STORAGE_FILE_DISK_H_
