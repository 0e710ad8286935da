// SMA-file: the materialized, sequentially organized aggregate file.
//
// "For all buckets, the resulting values are materialized in a separate
// SMA-file. The SMA-file is sequentially organized: the value for the first
// bucket is the first value in the SMA-file, the second value is the second
// value in the SMA-file and so on. Contrary to traditional index structures,
// a SMA-file does not contain any other additional information." (§2.1)
//
// Pages are fully packed with fixed-width entries (4 or 8 bytes) and carry
// no header, which reproduces the paper's file sizes exactly: one 4-byte
// entry per 4K bucket => SMA-file = 1/1024 of the data.

#ifndef SMADB_SMA_SMA_FILE_H_
#define SMADB_SMA_SMA_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "storage/buffer_pool.h"
#include "util/status.h"

namespace smadb::sma {

/// One sequential aggregate file. Entry i holds the aggregate of bucket i
/// (for one group, if the owning SMA is grouped).
class SmaFile {
 public:
  /// Creates an empty SMA-file backed by disk file `file_name`.
  static util::Result<std::unique_ptr<SmaFile>> Create(
      storage::BufferPool* pool, const std::string& file_name,
      uint32_t entry_width);

  /// Re-attaches to an existing disk file holding `num_entries` entries
  /// (recovery path; the entries themselves stay wherever they are).
  static util::Result<std::unique_ptr<SmaFile>> Open(
      storage::BufferPool* pool, const std::string& file_name,
      uint32_t entry_width, uint64_t num_entries);

  uint32_t entry_width() const { return entry_width_; }
  uint64_t num_entries() const {
    return num_entries_.load(std::memory_order_acquire);
  }
  uint32_t num_pages() const {
    return num_pages_.load(std::memory_order_acquire);
  }
  storage::FileId file() const { return file_; }

  /// Entries that fit on one page (1024 for 4-byte, 512 for 8-byte).
  uint32_t entries_per_page() const { return entries_per_page_; }

  /// Appends one entry at the tail (bulk-load path).
  util::Status Append(int64_t value);

  /// Reads entry `idx` (random access through the buffer pool).
  util::Result<int64_t> Get(uint64_t idx) const;

  /// Overwrites entry `idx` in place (maintenance path; at most one page
  /// access, §2.1).
  util::Status Set(uint64_t idx, int64_t value);

  /// Discards all entries: evicts cached pages *without* write-back (they
  /// may be corrupt) and truncates the disk file. The rebuild path starts
  /// from here.
  util::Status Clear();

  /// Page that holds entry `idx`.
  uint32_t PageOfEntry(uint64_t idx) const {
    return static_cast<uint32_t>(idx / entries_per_page_);
  }

  /// Sequential reader that keeps the current page pinned so that a
  /// bucket-ordered scan touches each SMA page exactly once.
  class Cursor {
   public:
    explicit Cursor(const SmaFile* file) : file_(file) {}

    /// Reads entry `idx`. Amortized zero page faults for non-decreasing idx.
    util::Result<int64_t> Get(uint64_t idx);

    /// Widens entries [first, end) into out[0, end - first), straight off
    /// the pinned page (or pages, when the range straddles one); the cursor
    /// keeps the last page pinned. kOutOfRange when `end` is past the
    /// entries published when the call began.
    util::Status Read(uint64_t first, uint64_t end, int64_t* out);

   private:
    const SmaFile* file_;
    storage::PageGuard guard_;
    int64_t cached_page_ = -1;
  };

  Cursor NewCursor() const { return Cursor(this); }

  /// Total bytes occupied on the simulated disk.
  uint64_t SizeBytes() const {
    return static_cast<uint64_t>(num_pages()) * storage::kPageSize;
  }

 private:
  SmaFile(storage::BufferPool* pool, storage::FileId file,
          uint32_t entry_width)
      : pool_(pool),
        file_(file),
        entry_width_(entry_width),
        entries_per_page_(
            static_cast<uint32_t>(storage::kPageSize / entry_width)) {}

  int64_t DecodeAt(const storage::Page& page, uint64_t idx) const;
  void EncodeAt(storage::Page* page, uint64_t idx, int64_t value) const;

  storage::BufferPool* pool_;
  storage::FileId file_;
  uint32_t entry_width_;
  uint32_t entries_per_page_;
  // Appends are single-writer (the engine's write path is serialized above
  // us), but graders read concurrently under OTHER buckets' latches, so the
  // tail counters follow the publish discipline used by Table::append_state:
  // entry bytes land first, then num_entries_ is store-released; readers
  // acquire-load it and never index past what they loaded.
  std::atomic<uint64_t> num_entries_{0};
  std::atomic<uint32_t> num_pages_{0};
};

}  // namespace smadb::sma

#endif  // SMADB_SMA_SMA_FILE_H_
