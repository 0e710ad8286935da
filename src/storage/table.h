// Bucketed heap table.
//
// A table is a sequence of fixed-layout data pages in one simulated file.
// Pages are grouped into *buckets* of `bucket_pages` consecutive pages — the
// unit the SMA layer summarizes (paper §2.1: "buckets can only be sets of
// consecutive tuples on disk"). The heap is append-ordered, which is exactly
// what gives time-of-creation clustering its power (§2.2).

#ifndef SMADB_STORAGE_TABLE_H_
#define SMADB_STORAGE_TABLE_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "storage/buffer_pool.h"
#include "storage/latch.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "util/status.h"

namespace smadb::storage {

/// Table creation knobs.
struct TableOptions {
  /// Pages per bucket (paper §4 tuning dimension). 1 = bucket == page.
  uint32_t bucket_pages = 1;
};

/// Physical tuple address.
struct Rid {
  uint32_t page_no = 0;
  uint16_t slot = 0;

  bool operator==(const Rid&) const = default;
};

/// Data-page layout: an 8-byte header (uint16 slot count), a tombstone
/// bitmap of ceil(capacity/8) bytes, then fixed-width tuple slots. Deleted
/// tuples keep their slot (stable Rids, positional SMA correspondence) and
/// are skipped by iteration.
inline constexpr size_t kPageHeaderSize = 8;

/// A consistent prefix of the heap captured at one instant: everything up to
/// slot `tail_count` of page `pages - 1`. Appends only ever grow the tail
/// page's slot count or add pages beyond it, so the prefix stays stable
/// while a scan runs — the scan never observes half-applied appends.
///
/// `demote_boundary` marks the one bucket whose SMA entries a concurrent
/// appender may still be folding into (the bucket holding the snapshot's
/// tail page, unless the snapshot ends exactly on a full bucket). Grading
/// from such an entry is still sound for skip decisions (the entry covers a
/// superset of the snapshot rows, and superset min/max bounds imply the
/// subset's), but DIRECT answers from its values (SMA_GAggr reading
/// count/sum out of the entry) would include post-snapshot rows — so scans
/// grade that bucket ambivalent and inspect its (snapshot-clamped) rows
/// instead.
struct TableSnapshot {
  uint32_t pages = 0;       ///< pages in the snapshot prefix
  uint16_t tail_count = 0;  ///< slots visible on page pages-1
  uint32_t buckets = 0;     ///< buckets covering those pages
  uint32_t boundary_bucket = 0;  ///< meaningful iff demote_boundary
  bool demote_boundary = false;

  /// Slots of `page_no` inside the snapshot, given the page's live header
  /// count (caller reads it under the bucket latch).
  uint16_t VisibleSlots(uint32_t page_no, uint16_t header_count) const {
    if (page_no + 1 > pages) return 0;
    if (page_no + 1 == pages) return std::min(header_count, tail_count);
    return header_count;
  }
};

class Table {
 public:
  /// Creates an empty table backed by a fresh file named "tbl.<name>".
  static util::Result<std::unique_ptr<Table>> Create(BufferPool* pool,
                                                     std::string name,
                                                     Schema schema,
                                                     TableOptions options = {});

  /// Re-attaches to an existing file "tbl.<name>" (recovery path): restores
  /// the manifest's counters without touching pages. WAL replay then applies
  /// post-checkpoint mutations via Apply*.
  static util::Result<std::unique_ptr<Table>> Restore(
      BufferPool* pool, std::string name, Schema schema, TableOptions options,
      uint64_t num_tuples, uint64_t num_deleted, uint32_t num_pages,
      uint64_t epoch);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  FileId file() const { return file_; }
  BufferPool* pool() const { return pool_; }
  uint32_t bucket_pages() const { return options_.bucket_pages; }

  /// Tuples that fit on one page.
  uint32_t tuples_per_page() const { return tuples_per_page_; }

  uint64_t num_tuples() const {
    return num_tuples_.load(std::memory_order_acquire);
  }
  uint32_t num_pages() const {
    return num_pages_.load(std::memory_order_acquire);
  }

  /// Modification epoch: bumped by every Append/UpdateColumn/DeleteTuple.
  /// SMAs record the epoch they were built/maintained at; an SMA behind the
  /// table epoch is stale (the table was mutated behind the maintainer's
  /// back) and the planner demotes to a plain scan until it is rebuilt.
  /// Vacuum does not bump it: compaction preserves live tuple contents and
  /// the bucket ↔ SMA-entry correspondence.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  /// Buckets currently present (last one may be partial).
  uint32_t num_buckets() const {
    return (num_pages() + options_.bucket_pages - 1) / options_.bucket_pages;
  }

  /// Captures the current consistent append prefix — one atomic load of the
  /// (pages, tail slot count) word Append publishes after the tuple bytes.
  /// Scans bound themselves by a snapshot instead of the live counters.
  TableSnapshot CaptureSnapshot() const;

  /// Reader-writer latches for this table, one per latch group of
  /// BucketsPerRun(bucket_pages) buckets. Writers latch the bucket a
  /// mutation lands in exclusively while splicing page bytes and folding
  /// SMA entries; readers latch the group they are scanning or grading
  /// shared. See storage/latch.h for the lock-order contract.
  BucketLatchTable* latches() const { return &latches_; }

  /// Bucket the next Append will land in. Stable only under the writer
  /// lock (appends are single-writer), where the maintainer uses it to
  /// latch the target bucket exclusively *before* the page write.
  uint64_t AppendTargetBucket() const {
    const TableSnapshot snap = CaptureSnapshot();
    if (snap.pages == 0 || snap.tail_count >= tuples_per_page_) {
      return static_cast<uint64_t>(snap.pages) / options_.bucket_pages;
    }
    return static_cast<uint64_t>(snap.pages - 1) / options_.bucket_pages;
  }

  /// Appends one tuple at the tail (bulk-load path). Optionally reports the
  /// assigned Rid.
  util::Status Append(const TupleBuffer& tuple, Rid* rid = nullptr);

  /// Rid the next Append will assign — what the WAL logs *before* applying,
  /// so a crash between log and apply replays to the same position.
  util::Result<Rid> NextRid() const;

  /// WAL replay: re-applies an insert at its logged absolute position.
  /// Idempotent — overwriting already-flushed bytes with the same bytes —
  /// and creates any missing tail pages. `tuple_bytes` is the raw
  /// fixed-width tuple image; `epoch_after` the table epoch the original
  /// mutation produced.
  util::Status ApplyInsert(Rid rid, std::string_view tuple_bytes,
                           uint64_t epoch_after);

  /// WAL replay: re-applies a column update (ignores tombstones a
  /// later-replaying delete will restore).
  util::Status ApplyUpdate(Rid rid, size_t col, const util::Value& v,
                           uint64_t epoch_after);

  /// WAL replay: re-applies a delete (idempotent on the bitmap bit).
  util::Status ApplyDelete(Rid rid, uint64_t epoch_after);

  /// Pins a data page. Const: reading mutates only the buffer pool.
  util::Result<PageGuard> FetchPage(uint32_t page_no) const {
    return pool_->Fetch(file_, page_no);
  }

  /// Pins up to `n` consecutive data pages from `first` (BufferPool::PinRun).
  util::Result<PageRun> PinPages(uint32_t first, uint32_t n) const {
    return pool_->PinRun(file_, first, n);
  }

  /// Slots used on a page (including tombstoned ones).
  static uint16_t PageTupleCount(const Page& page) {
    return page.ReadAt<uint16_t>(0);
  }

  /// True when slot `slot` of `page` holds a deleted tuple.
  static bool PageSlotDeleted(const Page& page, uint16_t slot) {
    return (page.data[kPageHeaderSize + slot / 8] >> (slot % 8)) & 1;
  }

  /// Byte offset where tuple slots start (header + tombstone bitmap).
  size_t TupleAreaOffset() const { return tuple_area_offset_; }

  /// View of tuple `slot` on `page` (page must stay pinned). The caller is
  /// responsible for skipping deleted slots.
  TupleRef PageTuple(const Page& page, uint16_t slot) const {
    return TupleRef(
        page.data + tuple_area_offset_ + slot * schema_.tuple_size(),
        &schema_);
  }

  /// Copies tuple `rid` out of its page.
  util::Result<TupleBuffer> ReadTuple(Rid rid);

  /// Overwrites column `col` of tuple `rid` in place. Fails on deleted
  /// tuples.
  util::Status UpdateColumn(Rid rid, size_t col, const util::Value& v);

  /// Tombstones tuple `rid`. Idempotent-error: deleting twice fails with
  /// NotFound. The slot is not reused; Rids of other tuples are stable.
  util::Status DeleteTuple(Rid rid);

  /// Live tuples (appends minus deletes).
  uint64_t num_live_tuples() const { return num_tuples() - num_deleted(); }
  uint64_t num_deleted() const {
    return num_deleted_.load(std::memory_order_acquire);
  }

  /// Vacuum: compacts every page in place, squeezing out tombstoned slots.
  /// Pages keep their position, so the bucket ↔ SMA-entry correspondence —
  /// and therefore every SMA — stays valid without a rebuild. Rids of
  /// tuples behind a removed slot shift down; callers holding Rids must
  /// refresh them. Slots freed on the last page become appendable again.
  util::Status Vacuum();

  /// Bucket of a page / first-and-end page of a bucket [first, end).
  uint32_t BucketOfPage(uint32_t page_no) const {
    return page_no / options_.bucket_pages;
  }
  std::pair<uint32_t, uint32_t> BucketPageRange(uint32_t bucket) const {
    const uint32_t first = bucket * options_.bucket_pages;
    const uint32_t end =
        std::min(first + options_.bucket_pages, num_pages());
    return {first, end};
  }

  /// Invokes `fn(TupleRef, Rid)` for every *live* tuple of `bucket`, in
  /// physical order. `fn` must not retain the TupleRef beyond the call.
  /// Const: a read-only walk (verification paths hold const Table*).
  /// Unsynchronized: the caller must hold the bucket's latch or run in a
  /// writer-serialized context (build/load/vacuum/verify); concurrent query
  /// paths stream through exec::BucketReader instead, which latches and
  /// snapshot-clamps.
  template <typename Fn>
  util::Status ForEachTupleInBucket(uint32_t bucket, Fn&& fn) const {
    const auto [first, end] = BucketPageRange(bucket);
    for (uint32_t p = first; p < end;) {
      SMADB_ASSIGN_OR_RETURN(PageRun run, PinPages(p, end - p));
      for (; p < run.end(); ++p) {
        const Page& page = *run.page(p);
        const uint16_t n = PageTupleCount(page);
        for (uint16_t s = 0; s < n; ++s) {
          if (PageSlotDeleted(page, s)) continue;
          fn(PageTuple(page, s), Rid{p, s});
        }
      }
    }
    return util::Status::OK();
  }

  /// Total base-data bytes (pages * page size).
  uint64_t SizeBytes() const {
    return static_cast<uint64_t>(num_pages()) * kPageSize;
  }

 private:
  Table(BufferPool* pool, FileId file, std::string name, Schema schema,
        TableOptions options);

  /// Re-derives append_state_ from the tail page header (Restore, Vacuum,
  /// replay — contexts where the word can't be maintained incrementally).
  util::Status RefreshAppendState();

  BufferPool* pool_;
  FileId file_;
  std::string name_;
  Schema schema_;
  TableOptions options_;
  uint32_t tuples_per_page_;
  size_t tuple_area_offset_;
  std::atomic<uint64_t> num_tuples_{0};
  std::atomic<uint64_t> num_deleted_{0};
  std::atomic<uint32_t> num_pages_{0};
  std::atomic<uint64_t> epoch_{0};
  /// Packed (pages << 16) | tail_slot_count, release-published by Append
  /// AFTER the tuple bytes and slot-count header land in the page — the one
  /// word CaptureSnapshot acquire-loads. Readers that bound themselves by a
  /// snapshot therefore always see fully-written tuples.
  std::atomic<uint64_t> append_state_{0};
  mutable BucketLatchTable latches_;
};

}  // namespace smadb::storage

#endif  // SMADB_STORAGE_TABLE_H_
