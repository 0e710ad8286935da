// LRU buffer pool over the simulated disk.
//
// The pool is what makes the paper's cold/warm distinction measurable:
// "cold" = DropAll() before the run (every access faults to disk), "warm" =
// run again with the SMA-files resident. The paper's AODB was configured
// with an 8 MB buffer; the default capacity matches (2048 4K frames).
//
// The pool is also the integrity boundary: on every miss the fetched bytes
// are checksummed against the disk's out-of-band CRC-32C, so silent
// corruption (injected or otherwise) surfaces as a typed kCorruption status
// naming the file and page instead of flowing into query results. Transient
// read errors are absorbed by a small bounded retry; when every frame is
// pinned, the first page of a PinRun/Fetch and NewPage wait (bounded) for a
// pin release before giving up with kResourceExhausted.
//
// Pages are pinned a run at a time: PinRun pins up to n consecutive pages
// of a file in one mutex hold and its PageRun releases them in one hold;
// Fetch is the n = 1 case. Each miss takes a frame marked *loading*, and
// the pool drops its mutex while the backend reads the run's missing pages
// (one ReadPages per stretch of consecutive misses) and their CRCs are
// checked, then publishes the frames. A thread that wants a loading frame
// as its first page waits on a condition variable; a run never waits once
// it holds pins — it ends early instead (see PinRun).
//
// Thread safety: all frame-table / LRU / free-list state is guarded by one
// mutex and the hit/miss counters are atomics, so any number of worker
// threads may pin / release pages concurrently (the morsel-parallel
// operators do). That bookkeeping allocates nothing after construction:
// frames carry their LRU links as frame indices, and the page table is a
// flat open-addressing array sized once, so a pin, an eviction, a publish
// and an unpin are a few index updates in the mutex hold. Only a frame's
// loader touches its bytes while it is loading, and the backend transfers
// them without any mutex of the pool or its own (see DiskBackend). Page
// *contents* follow pin discipline: a pinned frame cannot move or be
// evicted, and query workers only read data pages, so no page-level latch
// is needed; writers (bulk load, maintenance) latch the bucket they change.
// Write-back of dirty frames (eviction, FlushAll) still runs under the pool
// mutex.

#ifndef SMADB_STORAGE_BUFFER_POOL_H_
#define SMADB_STORAGE_BUFFER_POOL_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "storage/contention.h"
#include "storage/disk.h"
#include "storage/page.h"
#include "util/query_context.h"
#include "util/status.h"

namespace smadb::storage {

/// Buffer-pool hit/miss counters (a consistent-enough snapshot; the live
/// counters are atomics inside the pool).
struct PoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  /// Reads that failed page verification (each surfaced as kCorruption).
  uint64_t checksum_failures = 0;
  /// Transient read errors absorbed by the retry loop.
  uint64_t read_retries = 0;
};

/// Robustness knobs; defaults are production behaviour.
struct BufferPoolOptions {
  /// Frames of kPageSize each; default 8 MB (the paper's buffer).
  size_t capacity_pages = 2048;
  /// Verify each fetched page against the disk's stored CRC-32C. Off only
  /// for overhead experiments (EXPERIMENTS.md X7).
  bool verify_checksums = true;
  /// Additional read attempts after a kIOError before it surfaces.
  int max_read_retries = 3;
  /// Backoff before each read retry (doubles per attempt).
  std::chrono::microseconds retry_backoff{50};
  /// Rounds × quantum bounds the wait for a pinned frame to free up before
  /// the first page of a PinRun/Fetch, or NewPage, fails with
  /// kResourceExhausted.
  int pinned_wait_rounds = 64;
  std::chrono::milliseconds pinned_wait_quantum{1};
  /// Optional governor hook (DESIGN.md §10): every pin's page is charged
  /// against this tracker (component "BufferPool.pins") while pinned, so
  /// pinned working memory counts toward the global budget. Null = off.
  /// Charge rejection surfaces from Fetch/NewPage as kResourceExhausted and
  /// ends a PinRun early after its first page.
  util::MemoryTracker* pin_tracker = nullptr;
  /// WAL-before-data barrier (DESIGN.md §12): invoked before any dirty page
  /// is written back (eviction or FlushAll). The durable Database wires this
  /// to Wal::Sync so no un-logged mutation ever reaches the backend. The
  /// callback must not re-enter the pool. Null = no ordering constraint
  /// (simulated backend without a WAL).
  std::function<util::Status()> pre_writeback = nullptr;
};

class BufferPool;

/// RAII pin on a buffered page. Movable, not copyable. While alive, the
/// frame cannot be evicted and `page()` stays valid.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, uint32_t frame, Page* page)
      : pool_(pool), frame_(frame), page_(page) {}
  PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
  /// Releases the currently held pin (if any) before adopting `o`'s;
  /// self-assignment is a no-op and keeps the pin.
  PageGuard& operator=(PageGuard&& o) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool valid() const { return page_ != nullptr; }
  const Page* page() const { return page_; }
  /// Grants write access and marks the frame dirty.
  Page* MutablePage();

  /// Releases the pin early (idempotent).
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint32_t frame_ = 0;
  Page* page_ = nullptr;
};

/// RAII pins on a run of up to kRunPages consecutive pages of one file,
/// taken and released in one pool mutex hold each. Movable, not copyable;
/// read-only. Holds its frame numbers inline: pinning allocates nothing.
class PageRun {
 public:
  PageRun() = default;
  PageRun(PageRun&& o) noexcept { *this = std::move(o); }
  /// Releases the currently held pins (if any) before adopting `o`'s.
  PageRun& operator=(PageRun&& o) noexcept;
  PageRun(const PageRun&) = delete;
  PageRun& operator=(const PageRun&) = delete;
  ~PageRun() { Release(); }

  /// The pinned pages are [first(), end()).
  uint32_t first() const { return first_; }
  uint32_t end() const { return first_ + size_; }
  uint32_t size() const { return size_; }
  bool Contains(uint32_t page_no) const {
    return page_no >= first_ && page_no < end();
  }

  /// Page `page_no`, which must lie in [first(), end()).
  const Page* page(uint32_t page_no) const;

  /// Releases every pin (idempotent).
  void Release();

 private:
  friend class BufferPool;

  BufferPool* pool_ = nullptr;
  uint32_t first_ = 0;
  uint32_t size_ = 0;
  std::array<uint32_t, kRunPages> frames_;  // frame of page first_ + i
};

// A run's misses are a bitmask over its pages (BufferPool::PinLocked).
static_assert(kRunPages <= 32);

/// Fixed-capacity LRU buffer pool; thread-safe (see header comment).
class BufferPool {
 public:
  /// `capacity_pages` frames of kPageSize each; default 8 MB.
  explicit BufferPool(DiskBackend* disk, size_t capacity_pages = 2048)
      : BufferPool(disk, BufferPoolOptions{.capacity_pages = capacity_pages}) {
  }

  BufferPool(DiskBackend* disk, BufferPoolOptions options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins up to min(n, kRunPages) (n >= 1) consecutive pages of `file`
  /// from `first` in one mutex hold, reading the misses outside the mutex
  /// with one ReadPages per stretch of consecutive misses. Missed bytes are verified against
  /// the stored checksum (kCorruption on mismatch, naming file and page);
  /// transient read errors are retried up to the options budget.
  ///
  /// Only the first page waits: for another thread's load of it, and
  /// (bounded) for a frame when all are pinned, failing with
  /// kResourceExhausted. Once it holds a pin the run never waits; it ends
  /// early, returning the pages pinned so far, when another thread is
  /// loading the next page, no frame is free, or the pin budget is used up
  /// (the governor's pin tracker rejects a charge, or pinning the page
  /// would take the pool past three quarters pinned — the last quarter is
  /// kept for other runs' first pages, SMA cursors and writers). On a read
  /// or checksum failure the run's loaded frames are dropped (the pages
  /// stay uncached) and all its pins are released before the error
  /// returns.
  util::Result<PageRun> PinRun(FileId file, uint32_t first, uint32_t n);

  /// Pins page `page_no` of `file`: PinRun with n = 1.
  util::Result<PageGuard> Fetch(FileId file, uint32_t page_no);

  /// Appends a fresh zeroed page to `file` and pins it (for bulk loading).
  util::Result<PageGuard> NewPage(FileId file, uint32_t* page_no_out);

  /// Writes back all dirty frames (keeps them cached).
  util::Status FlushAll();

  /// Writes back and evicts everything — simulates a cold start.
  util::Status DropAll();

  /// Evicts (after write-back) every cached page of one file. Used to warm
  /// selectively, e.g. keep SMA-files hot but drop the base relation.
  util::Status DropFile(FileId file);

  /// Evicts every cached page of one file *without* write-back — for files
  /// about to be truncated (SMA rebuild discards their contents, including
  /// possibly-corrupt cached pages).
  util::Status DiscardFile(FileId file);

  /// Evicts *everything* without write-back: dirty pages are lost as if the
  /// process died before they reached the backend. The in-process crash
  /// simulation (Database::CrashForTesting) is the only caller.
  util::Status DiscardAll();

  /// Counter snapshot.
  PoolStats stats() const {
    PoolStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.dirty_writebacks = dirty_writebacks_.load(std::memory_order_relaxed);
    s.checksum_failures = checksum_failures_.load(std::memory_order_relaxed);
    s.read_retries = read_retries_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() {
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
    dirty_writebacks_ = 0;
    checksum_failures_ = 0;
    read_retries_ = 0;
  }

  size_t capacity() const { return frames_.size(); }
  size_t num_cached() const {
    const auto lock = Lock();
    return table_.size();
  }
  /// Acquires of the pool mutex that had to block, and their wait.
  ContentionStats mutex_contention() const { return mu_contention_.stats(); }
  DiskBackend* disk() const { return disk_; }
  const BufferPoolOptions& options() const { return options_; }

 private:
  friend class PageGuard;
  friend class PageRun;

  // No frame: an empty page-table slot, or the end of the LRU list.
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  struct Frame {
    Page page;
    FileId file = kInvalidFile;
    uint32_t page_no = 0;
    uint32_t pin_count = 0;
    // Neighbours in the LRU list (towards the most / least recent end),
    // valid iff in_lru.
    uint32_t lru_prev = kNoFrame;
    uint32_t lru_next = kNoFrame;
    bool dirty = false;
    bool used = false;
    // Pinned by the thread reading its bytes outside the mutex; no one else
    // pins it until the load is published.
    bool loading = false;
    bool in_lru = false;  // unpinned and cached: a candidate victim
  };

  // Maps (file, page) to the frame caching it: linear probing over a
  // power-of-two array kept at most half full, sized once for the pool's
  // capacity. Erase shifts the rest of the probe chain back instead of
  // leaving a tombstone, so lookups never slow down with churn.
  class PageTable {
   public:
    explicit PageTable(size_t capacity);
    // The frame caching `key`, or kNoFrame.
    uint32_t Find(uint64_t key) const;
    // `key` must be absent.
    void Insert(uint64_t key, uint32_t frame);
    // `key` must be present.
    void Erase(uint64_t key);
    size_t size() const { return size_; }

   private:
    struct Slot {
      uint64_t key = 0;
      uint32_t frame = kNoFrame;
    };
    size_t Home(uint64_t key) const {
      // Fibonacci hashing: the product's top bits index the array.
      return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    std::vector<Slot> slots_;
    size_t mask_;
    int shift_;
    size_t size_ = 0;
  };

  static uint64_t Key(FileId f, uint32_t p) {
    return (static_cast<uint64_t>(f) << 32) | p;
  }

  // Locks mu_, counting the acquire when it has to block.
  std::unique_lock<std::mutex> Lock() const {
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    mu_contention_.Acquire(lock);
    return lock;
  }

  void Unpin(uint32_t frame);
  void UnpinRun(const PageRun& run);
  void MarkDirty(uint32_t frame);
  // The Locked helpers require mu_ to be held by the caller.
  void UnpinLocked(uint32_t frame);
  // Puts an unpinned frame at the most recent end of the LRU list / takes
  // it out of the list.
  void LruPushFrontLocked(uint32_t frame);
  void LruUnlinkLocked(uint32_t frame);
  // Pins the page after `run`'s last (its first page when empty); a miss
  // takes a frame marked loading and sets the page's bit (its offset in
  // the run) in `*loads`. Returns false when a later page ends the run
  // instead.
  util::Result<bool> PinLocked(std::unique_lock<std::mutex>* lock,
                               FileId file, PageRun* run, uint32_t* loads);
  // Counts a frame's 0 -> 1 pin, charging it to the pin tracker; the
  // release undoes both.
  util::Status ChargePinLocked();
  void ReleasePinLocked();
  // Undoes a failed PinRun: its loading frames are dropped (uncached, back
  // on the free list) and its other pins released.
  void AbandonLocked(PageRun* run);
  util::Result<uint32_t> GetFreeFrameLocked();
  util::Status EvictFrameLocked(uint32_t idx);
  // Evicts every cached frame `drop` selects, after write-back iff
  // `writeback`; `what` names the caller in the error for a pinned frame.
  template <typename Drop>
  util::Status DropFramesLocked(Drop drop, bool writeback, const char* what);
  // Runs the pre_writeback barrier (if configured).
  util::Status BarrierLocked();

  // Reads `run`'s loading frames (the offsets set in `loads`) with one
  // ReadPages per stretch of consecutive ones, bounded retry, and checksum
  // verification. Runs without the mutex.
  util::Status LoadFrames(FileId file, const PageRun& run, uint32_t loads);

  DiskBackend* disk_;
  BufferPoolOptions options_;
  // Guards frames_, free_list_, the LRU list and table_.
  mutable std::mutex mu_;
  mutable ContentionCounter mu_contention_;
  std::condition_variable frame_available_;  // signaled when a pin releases
  std::condition_variable load_done_;  // signaled when loads publish or drop
  std::vector<Frame> frames_;
  std::vector<uint32_t> free_list_;
  uint32_t lru_head_ = kNoFrame;  // most recently unpinned
  uint32_t lru_tail_ = kNoFrame;  // least recently unpinned: the next victim
  PageTable table_;
  size_t pinned_frames_ = 0;  // frames with pin_count > 0
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> dirty_writebacks_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  std::atomic<uint64_t> read_retries_{0};
};

}  // namespace smadb::storage

#endif  // SMADB_STORAGE_BUFFER_POOL_H_
