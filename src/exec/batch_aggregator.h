// BatchAggregator: fused grouping-aggregation kernels over column batches —
// how GAggr, SMA_GAggr (ambivalent buckets) and ParallelScanAggr fold
// tuples. Per batch it runs two passes: (1) one pass over the selection
// vector resolving each row's group id from fixed-width raw key bytes (with
// a last-key cache that exploits the paper's time-of-creation clustering —
// consecutive tuples usually share a group), then (2) one tight accumulate
// loop per aggregate over pre-evaluated argument vectors: array arithmetic
// instead of a Value/serialize/std::map lookup and an expression-tree walk
// per row.
//
// Exactness: sums/min/max accumulate in int64 (decimals as cents), and
// FlushInto folds the partials through GroupState::AddBucketCount/
// AddSummary — the same entry points the SMA path uses — so partials from
// any mix of buckets, batches and workers finalize to the same groups, in
// the same deterministic key order.

#ifndef SMADB_EXEC_BATCH_AGGREGATOR_H_
#define SMADB_EXEC_BATCH_AGGREGATOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "exec/aggregate.h"
#include "exec/batch.h"
#include "exec/bucket_source.h"
#include "storage/schema.h"

namespace smadb::exec {

class BatchAggregator {
 public:
  /// `input` is the child/batch schema; `group_by` and `aggs` must outlive
  /// the aggregator (they belong to the owning operator).
  BatchAggregator(const storage::Schema* input,
                  const std::vector<size_t>* group_by,
                  const std::vector<AggSpec>* aggs);

  /// Projection covering the group-by columns and every aggregate-argument
  /// column — the minimum a batch fed to AddBatch must decode.
  std::vector<bool> RequiredColumns() const;

  /// Folds the selected rows of `batch` into the internal partial groups.
  void AddBatch(const Batch& batch);

  /// Folds the partial groups into `table` (via the same AddBucketCount /
  /// AddSummary entry points the SMA path uses) and resets this aggregator.
  void FlushInto(GroupTable* table);

 private:
  /// One group's partial state: raw accumulators parallel to *aggs_
  /// (min/max seeded with sentinels — every existing group has >= 1 row,
  /// so the sentinel never leaks into results).
  struct Group {
    std::vector<int64_t> acc;
    int64_t rows = 0;
  };

  /// Per-batch decoded base pointers of one group-by column.
  struct KeyPtr {
    const int64_t* i64 = nullptr;
    const double* f64 = nullptr;
    const uint8_t* str = nullptr;
    uint16_t bytes = 0;  // raw width within the serialized key
  };

  Group MakeGroup() const;
  void BuildKey(size_t k_row);
  void DecodeKey(const std::string& raw, std::vector<util::Value>* key) const;

  const storage::Schema* input_;
  const std::vector<size_t>* group_by_;
  const std::vector<AggSpec>* aggs_;
  size_t key_width_ = 0;
  std::vector<uint16_t> key_bytes_;  // per group-by column

  std::unordered_map<std::string, uint32_t> gids_;
  std::vector<std::string> keys_;  // gid -> raw key bytes
  std::vector<Group> groups_;

  // Per-batch scratch (reused; sized to the selection).
  std::vector<KeyPtr> key_ptrs_;
  std::string key_scratch_;
  std::vector<uint32_t> row_gids_;
  std::vector<int64_t> vals_;
};

/// Folds whole buckets of one table into a BatchAggregator — the per-bucket
/// work of SMA_GAggr's ambivalent buckets and of ParallelScanAggr's morsels.
/// One per worker (the reader pins pages); the owning operator configures
/// `batch` with the aggregator's columns plus the predicate's, and charges
/// it.
struct BucketFolder {
  BucketFolder(storage::Table* table, const std::vector<size_t>* group_by,
               const std::vector<AggSpec>* aggs)
      : reader(table), aggregator(&table->schema(), group_by, aggs) {}

  /// Decodes bucket `bucket` batch by batch into `aggregator`. `pred`
  /// refines each batch's selection; null for a qualifying bucket, whose
  /// dense all-rows selection needs no predicate evaluation (§3.1).
  util::Status Fold(uint64_t bucket, const expr::Predicate* pred);

  BucketReader reader;
  Batch batch;
  BatchAggregator aggregator;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_BATCH_AGGREGATOR_H_
