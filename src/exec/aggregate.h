// Shared grouping-aggregation machinery for GAggr and SMA_GAggr.
//
// Aggregate state is exact: sums/min/max of the integral family accumulate
// in int64 (decimals as cents); averages are finalized as sum/count in the
// last phase, exactly as the paper describes ("for the latter, we first
// compute the sum and divide by the count in the last phase").

#ifndef SMADB_EXEC_AGGREGATE_H_
#define SMADB_EXEC_AGGREGATE_H_

#include <map>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "util/status.h"

namespace smadb::exec {

/// Aggregate functions a query's select clause may request.
enum class AggKind { kSum, kCount, kAvg, kMin, kMax };

std::string_view AggKindToString(AggKind k);

/// One requested aggregate.
struct AggSpec {
  AggKind kind;
  /// Argument expression; null exactly for count(*).
  expr::ExprPtr arg;
  /// Output column name ("sum_qty", ...).
  std::string name;

  static AggSpec Sum(expr::ExprPtr arg, std::string name) {
    return {AggKind::kSum, std::move(arg), std::move(name)};
  }
  static AggSpec Avg(expr::ExprPtr arg, std::string name) {
    return {AggKind::kAvg, std::move(arg), std::move(name)};
  }
  static AggSpec Min(expr::ExprPtr arg, std::string name) {
    return {AggKind::kMin, std::move(arg), std::move(name)};
  }
  static AggSpec Max(expr::ExprPtr arg, std::string name) {
    return {AggKind::kMax, std::move(arg), std::move(name)};
  }
  static AggSpec Count(std::string name) {
    return {AggKind::kCount, nullptr, std::move(name)};
  }

  /// Output type: sum keeps the argument's family (decimal/int64), count is
  /// int64, avg is double, min/max keep the argument type.
  util::TypeId OutputType() const;
};

/// Result schema: the group-by columns (same definitions as the input),
/// followed by one column per aggregate.
util::Result<storage::Schema> AggResultSchema(
    const storage::Schema& input, const std::vector<size_t>& group_by,
    const std::vector<AggSpec>& aggs);

/// Validates aggregate specs (count has no arg, others integral-family arg).
util::Status ValidateAggs(const std::vector<AggSpec>& aggs);

/// Accumulated state of one group.
class GroupState {
 public:
  explicit GroupState(const std::vector<AggSpec>* aggs)
      : aggs_(aggs),
        acc_(aggs->size(), 0),
        defined_(aggs->size(), false) {}

  /// Phase 2: folds one summary for aggregate `idx` — a bucket's SMA entry
  /// or a BatchAggregator partial.
  /// For sum/avg pass the summed value, for min/max the extreme, for count
  /// the bucket count. `bucket_count` is the group's count(*) in the bucket
  /// (needed once per bucket for averages — pass it via AddBucketCount).
  void AddSummary(size_t idx, int64_t value);

  /// Phase 2: adds the group's tuple count of one bucket or partial.
  void AddBucketCount(int64_t count) { row_count_ += count; }

  /// Folds another partial state for the same group into this one. Exact:
  /// sums/counts add, min/max combine, and averages are finalized from the
  /// merged sum and count, so per-worker partial aggregation over disjoint
  /// bucket sets reproduces the serial result bit for bit.
  void MergeFrom(const GroupState& o);

  int64_t row_count() const { return row_count_; }

  /// Phase 3: materializes group key + finalized aggregates into `out`,
  /// whose schema must be AggResultSchema(...). `key` are the group-by
  /// values in declaration order.
  void Finalize(const std::vector<util::Value>& key,
                storage::TupleBuffer* out) const;

 private:
  const std::vector<AggSpec>* aggs_;
  std::vector<int64_t> acc_;
  std::vector<bool> defined_;  // for min/max: any value seen yet?
  int64_t row_count_ = 0;
};

/// Deterministically ordered group map (serialized key → state); shared by
/// both aggregation operators so their outputs are comparable row-by-row.
class GroupTable {
 public:
  explicit GroupTable(const std::vector<AggSpec>* aggs) : aggs_(aggs) {}

  /// State for `key`, created on first use.
  GroupState* Get(const std::vector<util::Value>& key);

  /// Emits all groups in key order into tuple buffers of `schema`.
  util::Status Emit(const storage::Schema* schema,
                    std::vector<storage::TupleBuffer>* out) const;

  /// Merges another table's partial groups (parallel workers aggregate into
  /// private tables over disjoint bucket sets, then merge). The key-ordered
  /// map makes the merged Emit order independent of worker interleaving.
  void MergeFrom(const GroupTable& o);

  size_t size() const { return groups_.size(); }

  /// Estimated heap footprint, maintained incrementally as groups appear.
  /// Operators charge the delta against the query's MemoryTracker at
  /// bucket/batch granularity — the hash-grouping memory hot spot under
  /// skew (DESIGN.md §10).
  size_t approx_bytes() const { return approx_bytes_; }

 private:
  struct Entry {
    std::vector<util::Value> key;
    GroupState state;
  };

  static std::string SerializeKey(const std::vector<util::Value>& key);

  /// Estimated bytes one new entry adds (key strings + accumulators + map
  /// node overhead).
  size_t EntryBytes(const std::string& skey,
                    const std::vector<util::Value>& key) const;

  const std::vector<AggSpec>* aggs_;
  std::map<std::string, Entry> groups_;
  size_t approx_bytes_ = 0;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_AGGREGATE_H_
