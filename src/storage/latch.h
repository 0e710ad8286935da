// Bucket-granular reader-writer latching for concurrent sessions.
//
// Concurrency in smadb is bucket-shaped: appends touch exactly the tail
// bucket, updates/deletes exactly the bucket holding the rid, and scans walk
// buckets a morsel at a time. A BucketLatchTable maps each *latch group* —
// the BucketsPerRun(bucket_pages) consecutive buckets that span one read run
// of kRunPages pages, i.e. one morsel — onto a fixed array of shared_mutex
// shards (group % shards). A reader takes one shared acquire per group and
// grades, answers or reads the whole group under it; a writer folding an
// append into the tail bucket's SMA entries latches that bucket, which
// excludes readers of its group only — every other group keeps streaming.
//
// Deadlock freedom: latches are leaf locks. A thread holds at most ONE
// latch at a time (readers release group g before acquiring the next one;
// writers latch the single bucket their mutation lands in), except for the
// whole-table paths (Vacuum, SMA Rebuild) which use LockAllExclusive — and
// that acquires shards in ascending index order, so two whole-table lockers
// cannot deadlock each other or any single-bucket locker. Lock order with
// the rest of the engine: Database::write_mu_ -> bucket latch ->
// BufferPool::mu_ -> Wal::mu_ (the pool's pre_writeback barrier is the
// pool->wal edge; nothing goes the other way). The backend's locks come
// after the pool mutex: DiskBackend::transfer_mu_ -> DiskBackend::mu_.
//
// Sharding makes collisions possible (group 0 and group `shards` share a
// mutex). That is a throughput hit, never a correctness one: a collision
// only ever serializes two operations that would have been safe to overlap.

#ifndef SMADB_STORAGE_LATCH_H_
#define SMADB_STORAGE_LATCH_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "obs/metrics.h"
#include "storage/contention.h"
#include "storage/disk.h"

namespace smadb::storage {

/// Cumulative latch counters (mirrored into the obs registry by Database).
struct LatchStats {
  uint64_t shared_acquires = 0;
  uint64_t exclusive_acquires = 0;
  /// Acquires that found the shard held and had to block.
  uint64_t contended = 0;
  /// Total nanoseconds spent blocked across contended acquires.
  uint64_t wait_ns = 0;
};

/// Consecutive buckets that span one read run of kRunPages pages (at least
/// one): the size of a latch group, and of a morsel (exec::BucketsPerMorsel).
inline uint64_t BucketsPerRun(uint32_t bucket_pages) {
  return std::max<uint64_t>(1, kRunPages / std::max<uint32_t>(1, bucket_pages));
}

class BucketLatchTable {
 public:
  // 32 keeps whole-table holds under ThreadSanitizer's per-thread cap of 64
  // simultaneously held locks: LockAllExclusive pins every shard while the
  // caller already holds the engine mutexes above it in the lock order, and
  // TSan's deadlock detector CHECK-aborts past 64. Collision rates at 32
  // shards are indistinguishable from 64 for group-grained traffic.
  static constexpr size_t kDefaultShards = 32;

  /// `group_buckets` consecutive buckets share one latch (BucketsPerRun of
  /// the table's bucket size).
  explicit BucketLatchTable(uint64_t group_buckets = 1,
                            size_t shards = kDefaultShards)
      : group_buckets_(group_buckets == 0 ? 1 : group_buckets),
        shards_(shards == 0 ? 1 : shards),
        mutexes_(std::make_unique<std::shared_mutex[]>(
            shards == 0 ? 1 : shards)) {}

  BucketLatchTable(const BucketLatchTable&) = delete;
  BucketLatchTable& operator=(const BucketLatchTable&) = delete;

  /// Optional wait-time histogram (nanoseconds per contended acquire);
  /// null = counters only. Set once at attach time, before concurrency.
  void set_wait_histogram(obs::Histogram* h) {
    contention_.set_wait_histogram(h);
  }

  size_t shards() const { return shards_; }

  /// Latch group of `bucket`: buckets [g * group_buckets, (g + 1) *
  /// group_buckets) share one latch.
  uint64_t GroupOf(uint64_t bucket) const { return bucket / group_buckets_; }
  uint64_t group_buckets() const { return group_buckets_; }

  /// Movable RAII shared (reader) hold on one group's shard.
  class SharedGuard {
   public:
    SharedGuard() = default;
    SharedGuard(SharedGuard&&) = default;
    SharedGuard& operator=(SharedGuard&&) = default;
    void Release() { lock_ = {}; }
    bool held() const { return lock_.owns_lock(); }

   private:
    friend class BucketLatchTable;
    explicit SharedGuard(std::shared_lock<std::shared_mutex> lock)
        : lock_(std::move(lock)) {}
    std::shared_lock<std::shared_mutex> lock_;
  };

  /// Movable RAII exclusive (writer) hold on one group's shard.
  class ExclusiveGuard {
   public:
    ExclusiveGuard() = default;
    ExclusiveGuard(ExclusiveGuard&&) = default;
    ExclusiveGuard& operator=(ExclusiveGuard&&) = default;
    void Release() { lock_ = {}; }
    bool held() const { return lock_.owns_lock(); }

   private:
    friend class BucketLatchTable;
    explicit ExclusiveGuard(std::unique_lock<std::shared_mutex> lock)
        : lock_(std::move(lock)) {}
    std::unique_lock<std::shared_mutex> lock_;
  };

  /// Exclusive hold on EVERY shard (whole-table mutations: Vacuum, SMA
  /// rebuild). Acquired in ascending shard order — see the header comment.
  class AllGuard {
   public:
    AllGuard() = default;
    AllGuard(AllGuard&&) = default;
    AllGuard& operator=(AllGuard&&) = default;

   private:
    friend class BucketLatchTable;
    std::vector<std::unique_lock<std::shared_mutex>> locks_;
  };

  /// Shared hold on the latch group of `bucket`: one acquire covers every
  /// bucket of the group.
  SharedGuard LockShared(uint64_t bucket) {
    std::shared_mutex& m = mutexes_[GroupOf(bucket) % shards_];
    std::shared_lock<std::shared_mutex> lock(m, std::try_to_lock);
    contention_.Acquire(lock);
    shared_acquires_.fetch_add(1, std::memory_order_relaxed);
    return SharedGuard(std::move(lock));
  }

  /// Exclusive hold for a mutation of `bucket`; excludes readers of the
  /// bucket's whole latch group.
  ExclusiveGuard LockExclusive(uint64_t bucket) {
    std::shared_mutex& m = mutexes_[GroupOf(bucket) % shards_];
    std::unique_lock<std::shared_mutex> lock(m, std::try_to_lock);
    contention_.Acquire(lock);
    exclusive_acquires_.fetch_add(1, std::memory_order_relaxed);
    return ExclusiveGuard(std::move(lock));
  }

  AllGuard LockAllExclusive() {
    AllGuard guard;
    guard.locks_.reserve(shards_);
    for (size_t i = 0; i < shards_; ++i) {
      guard.locks_.emplace_back(mutexes_[i]);
    }
    exclusive_acquires_.fetch_add(shards_, std::memory_order_relaxed);
    return guard;
  }

  LatchStats stats() const {
    LatchStats s;
    s.shared_acquires = shared_acquires_.load(std::memory_order_relaxed);
    s.exclusive_acquires = exclusive_acquires_.load(std::memory_order_relaxed);
    const ContentionStats c = contention_.stats();
    s.contended = c.contended;
    s.wait_ns = c.wait_ns;
    return s;
  }

 private:
  const uint64_t group_buckets_;
  const size_t shards_;
  std::unique_ptr<std::shared_mutex[]> mutexes_;
  std::atomic<uint64_t> shared_acquires_{0};
  std::atomic<uint64_t> exclusive_acquires_{0};
  ContentionCounter contention_;
};

}  // namespace smadb::storage

#endif  // SMADB_STORAGE_LATCH_H_
