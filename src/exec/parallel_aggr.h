// ParallelScanAggr: morsel-parallel scan + grouping-aggregation.
//
// Runs both scan plans of an aggregation query, GAggr over TableScan and
// GAggr over SMA_Scan, at every degree of parallelism (dop 1 runs the
// morsel loop inline on the caller). It fuses the scan and the grouping
// aggregation (Dayal's GAggr [4]) into one operator whose unit of work is
// the morsel: a run of consecutive buckets (§2.1: physically
// consecutive pages) spanning one read run. Workers claim morsels through
// ParallelFor, grade every bucket against the SMAs (when present), fetch
// each stretch of qualifying/ambivalent buckets through a private
// BucketReader a run of pages at a time, and aggregate into private
// GroupTables; the partial tables are merged at the end. Every morsel
// carries batches: workers decode pages column-at-a-time, map the grades
// onto the selection vector (an all-qualifying stretch = dense all-rows, no
// predicate evaluation), and aggregate through the fused BatchAggregator
// kernels. The merge is exact —
// sum/count/min/max compose associatively and commutatively, averages are
// finalized from the merged sum and count — so the result is the same for
// every degree of parallelism.

#ifndef SMADB_EXEC_PARALLEL_AGGR_H_
#define SMADB_EXEC_PARALLEL_AGGR_H_

#include <memory>
#include <vector>

#include "exec/aggregate.h"
#include "exec/bucket_source.h"
#include "exec/operator.h"
#include "expr/predicate.h"
#include "storage/table.h"

namespace smadb::exec {

class ParallelScanAggr final : public Operator {
 public:
  /// Groups `table` on `group_by` under `pred` and computes `aggs`. `smas`
  /// may be null: the operator then reads every bucket (each grades
  /// ambivalent), which is GAggr∘TableScan; with SMAs it runs
  /// GAggr∘SMA_Scan. Fails when `aggs` is empty, a group-by column is
  /// out of range or an aggregate's argument is not integral-family
  /// (AggResultSchema).
  static util::Result<std::unique_ptr<ParallelScanAggr>> Make(
      storage::Table* table, expr::PredicatePtr pred,
      std::vector<size_t> group_by, std::vector<AggSpec> aggs,
      const sma::SmaSet* smas, size_t degree_of_parallelism);

  const storage::Schema& output_schema() const override { return schema_; }

  /// Pipeline breaker: the whole parallel aggregation runs here.
  util::Status Init() override;

  util::Result<bool> NextBatch(Batch* out) override {
    return results_.Emit(out, prof_);
  }

  /// Merged bucket census across all workers (the same at every dop).
  const SmaScanStats& stats() const { return stats_; }
  size_t degree_of_parallelism() const { return dop_; }

  void BindContext(util::QueryContext* ctx) override {
    Operator::BindContext(ctx);
    BindProfile("ParallelScanAggr");
  }

 private:
  /// Init minus the profile feed; Init wraps this so the merged census
  /// reaches the profile node exactly once, success or failure.
  util::Status InitImpl();

  ParallelScanAggr(storage::Table* table, expr::PredicatePtr pred,
                   std::vector<size_t> group_by, std::vector<AggSpec> aggs,
                   const sma::SmaSet* smas, storage::Schema schema,
                   size_t dop)
      : table_(table),
        pred_(std::move(pred)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)),
        smas_(smas),
        schema_(std::move(schema)),
        dop_(dop) {}

  storage::Table* table_;
  expr::PredicatePtr pred_;
  std::vector<size_t> group_by_;
  std::vector<AggSpec> aggs_;
  const sma::SmaSet* smas_;
  storage::Schema schema_;
  size_t dop_;

  RowEmitter results_;
  SmaScanStats stats_;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_PARALLEL_AGGR_H_
