// BatchAggregator: fused grouping-aggregation kernels over column batches —
// how SmaGAggr folds the tuples of every bucket it fetches. Per batch it
// runs two passes: (1) one pass over the selection vector resolving each
// row's group id from fixed-width raw key bytes (with a last-key cache that
// exploits the paper's time-of-creation clustering — consecutive tuples
// usually share a group), then (2) one tight accumulate loop per aggregate
// over pre-evaluated argument vectors: array arithmetic instead of a
// Value/serialize/std::map lookup and an expression-tree walk per row.
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
#include "storage/schema.h"

namespace smadb::exec {

class BatchAggregator {
 public:
  /// `input` is the batch schema; `group_by` and `aggs` must outlive
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

  /// Estimated heap footprint of the partial groups, maintained as groups
  /// appear. Operators charge its growth against the query budget morsel
  /// by morsel, so a high-cardinality group-by fails before it has built
  /// every group.
  size_t approx_bytes() const { return approx_bytes_; }

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
  size_t approx_bytes_ = 0;

  // Per-batch scratch (reused; sized to the selection).
  std::vector<KeyPtr> key_ptrs_;
  std::string key_scratch_;
  std::vector<uint32_t> row_gids_;
  std::vector<int64_t> vals_;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_BATCH_AGGREGATOR_H_
