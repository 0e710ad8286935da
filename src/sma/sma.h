// Sma: one SMA definition materialized over one table — a set of SMA-files,
// one per group ("For every possible group, there will be a single SMA-file
// containing the aggregated values for this group", §2.3).

#ifndef SMADB_SMA_SMA_H_
#define SMADB_SMA_SMA_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sma/sma_def.h"
#include "sma/sma_file.h"
#include "storage/table.h"
#include "util/value.h"

namespace smadb::sma {

/// Sentinel entry values marking "aggregate not defined" for min/max
/// (group absent from a bucket, §3.1 "the else case is also applied if the
/// max/min aggregates are not defined"). The extreme representable values
/// are reserved for this purpose.
inline constexpr int64_t kUndefinedMin64 = std::numeric_limits<int64_t>::max();
inline constexpr int64_t kUndefinedMax64 = std::numeric_limits<int64_t>::min();
inline constexpr int64_t kUndefinedMin32 = std::numeric_limits<int32_t>::max();
inline constexpr int64_t kUndefinedMax32 = std::numeric_limits<int32_t>::min();

/// A materialized SMA. Create empty via Create(), fill via SmaBuilder or
/// SmaMaintainer; both keep the invariant that every group file has exactly
/// `num_buckets()` entries, positionally aligned with the table's buckets.
class Sma {
 public:
  static util::Result<std::unique_ptr<Sma>> Create(storage::BufferPool* pool,
                                                   const storage::Table* table,
                                                   SmaSpec spec);

  /// Re-attaches a SMA to its existing group files (recovery path). Group
  /// file names are deterministic ("sma.<table>.<name>[.g<i>]"), so the
  /// manifest only has to record the keys in ordinal order. Trust state is
  /// restored as recorded; the caller decides whether a replayed table epoch
  /// invalidates it.
  static util::Result<std::unique_ptr<Sma>> Restore(
      storage::BufferPool* pool, const storage::Table* table, SmaSpec spec,
      const std::vector<std::vector<util::Value>>& group_keys,
      uint64_t num_buckets, uint64_t built_epoch, bool trusted,
      std::string distrust_reason);

  const SmaSpec& spec() const { return spec_; }
  const storage::Table* table() const { return table_; }
  storage::BufferPool* pool() const { return pool_; }

  /// Buckets covered so far (entries per group file).
  uint64_t num_buckets() const {
    return num_buckets_.load(std::memory_order_acquire);
  }

  /// Groups visible to readers. Published AFTER the group's file is fully
  /// constructed, so indexing any g < num_groups() is always safe even while
  /// a maintainer concurrently creates groups (the deque keeps references
  /// stable).
  size_t num_groups() const {
    return num_groups_.load(std::memory_order_acquire);
  }
  const std::vector<util::Value>& group_key(size_t g) const {
    return groups_[g].key;
  }
  const SmaFile* group_file(size_t g) const { return groups_[g].file.get(); }
  SmaFile* group_file(size_t g) { return groups_[g].file.get(); }

  /// Group ordinal for `key`, or -1 when no such group exists yet.
  int64_t FindGroup(const std::vector<util::Value>& key) const;

  /// Group ordinal for `key`, creating the group (and backfilling
  /// `num_buckets()` identity entries) when absent.
  util::Result<size_t> GetOrCreateGroup(const std::vector<util::Value>& key);

  /// Appends identity entries to every group file until `n` buckets are
  /// covered.
  util::Status EnsureBuckets(uint64_t n);

  /// Appends one new bucket's entries: `acc` maps group ordinal → folded
  /// entry; groups absent from the bucket receive the identity. Increments
  /// num_buckets(). (Bulk-load path.)
  util::Status AppendBucket(const std::map<size_t, int64_t>& acc);

  /// Folds every live tuple of `bucket` into `*acc` (group ordinal → entry),
  /// creating unseen groups. Shared by bulk load, bucket recompute, and
  /// Rebuild().
  util::Status AccumulateBucket(uint64_t bucket,
                                std::map<size_t, int64_t>* acc);

  // --- trust ---------------------------------------------------------------
  // A SMA is *usable* iff it is trusted and its built-epoch matches the
  // table's modification epoch. The planner demotes to a plain scan
  // otherwise; SmaMaintainer::Rebuild() repairs unusable SMAs.

  /// Table modification epoch this SMA was built/maintained at.
  uint64_t built_epoch() const {
    return built_epoch_.load(std::memory_order_acquire);
  }

  /// False once corruption or a failed Verify() condemned this SMA.
  bool trusted() const { return trusted_.load(std::memory_order_acquire); }
  std::string distrust_reason() const {
    std::lock_guard<std::mutex> lock(trust_mu_);
    return distrust_reason_;
  }

  /// Records that the SMA reflects the table at `epoch` and clears any
  /// distrust.
  void MarkTrusted(uint64_t epoch);

  /// Condemns the SMA (const: the planner discovers corruption through
  /// const pointers; trust is bookkeeping, not SMA content).
  void MarkDistrusted(std::string reason) const;

  /// True when the table changed behind this SMA's back. Reads the table's
  /// epoch first: the maintainer stamps the SMA before the table write bumps
  /// it (sma/maintenance.cc), so a concurrent planner never observes a
  /// transiently "stale" SMA mid-mutation.
  bool stale() const {
    const uint64_t table_epoch = table_->epoch();
    return built_epoch() < table_epoch;
  }

  /// Self-check: recomputes up to `max_sample_buckets` evenly spaced bucket
  /// aggregates from the base data and compares them with the stored
  /// entries. A mismatch (or a checksum failure reading a SMA page) marks
  /// the SMA distrusted and returns kCorruption; base-table read errors
  /// propagate unchanged.
  util::Status Verify(uint64_t max_sample_buckets = 16) const;

  /// Discards every group file and re-materializes the SMA from the base
  /// data, then marks it trusted at the table's current epoch. The repair
  /// path for corrupt or stale SMAs.
  util::Status Rebuild();

  /// Initial entry value before any tuple contributed: 0 for sum/count,
  /// the undefined sentinel for min/max.
  int64_t IdentityEntry() const;

  /// True if `entry` is the min/max undefined sentinel (always false for
  /// sum/count).
  bool IsUndefined(int64_t entry) const;

  /// Folds one tuple's argument value `v` into an entry.
  int64_t Merge(int64_t entry, int64_t v) const;

  /// Argument value of a tuple (cents/days/ints); 0 for count(*).
  int64_t ArgOf(const storage::TupleRef& t) const {
    return spec_.arg != nullptr ? spec_.arg->EvalInt(t) : 0;
  }

  /// Group key of a tuple (empty for ungrouped SMAs).
  std::vector<util::Value> GroupKeyOf(const storage::TupleRef& t) const;

  /// Pages / bytes over all group files.
  uint64_t TotalPages() const;
  uint64_t SizeBytes() const;

  /// Bucket-level min/max of the argument across *all* groups, skipping
  /// undefined entries; nullopt when every group is undefined. Only valid
  /// for min/max SMAs. Random access; grading uses cursors instead.
  util::Result<std::optional<int64_t>> BucketExtreme(uint64_t bucket) const;

 private:
  struct Group {
    std::vector<util::Value> key;
    std::unique_ptr<SmaFile> file;
  };

  Sma(storage::BufferPool* pool, const storage::Table* table, SmaSpec spec)
      : pool_(pool), table_(table), spec_(std::move(spec)) {}

  static std::string SerializeKey(const std::vector<util::Value>& key);

  storage::BufferPool* pool_;
  const storage::Table* table_;
  SmaSpec spec_;
  // Deque: group creation must not invalidate references readers hold.
  std::deque<Group> groups_;
  // Readers' view of groups_.size(); see num_groups().
  std::atomic<size_t> num_groups_{0};
  // Writer-side only (mutations are serialized by the database writer lock).
  std::unordered_map<std::string, size_t> group_index_;
  std::atomic<uint64_t> num_buckets_{0};
  std::atomic<uint64_t> built_epoch_{0};
  // Trust is mutable: corruption is discovered on read-only paths (planner,
  // Verify) that hold const pointers.
  mutable std::atomic<bool> trusted_{true};
  mutable std::mutex trust_mu_;  ///< guards distrust_reason_
  mutable std::string distrust_reason_;
};

}  // namespace smadb::sma

#endif  // SMADB_SMA_SMA_H_
