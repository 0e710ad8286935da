// SMA_GAggr (paper §3.3, Fig. 7): grouping-aggregation computed from SMAs.
//
// Selection SMAs partition the buckets; for qualifying buckets the queried
// aggregates are advanced straight from the aggregate SMA entries, only
// ambivalent buckets are fetched (decoded into column batches, filtered
// with EvalBatch and folded by the BatchAggregator kernels), and averages
// are finalized as sum/count in the last phase. The operator scans
// the relation and all SMA-files "in parallel" (one synchronized sequential
// pass).
//
// Matching rules: an aggregate SMA serves a query aggregate when function
// and argument expression match and the SMA's grouping *refines* the
// query's (query group-by columns ⊆ SMA group-by columns; SMA groups are
// projected onto query groups, cf. §2.3 "a SMA has to reflect the grouping
// of the query or a finer grouping"). A count(*) SMA with compatible
// grouping is always required: it carries group cardinalities (for count
// and avg results) and decides which groups have qualifying tuples at all.
//
// With degree_of_parallelism > 1 the buckets become morsels: workers claim
// them through the BucketSource counter, grade and aggregate into private
// GroupTables through private SMA-file cursors, and the partial tables are
// merged at the end — exact, because sum/count/min/max (and avg as
// sum+count) compose associatively and commutatively.

#ifndef SMADB_EXEC_SMA_GAGGR_H_
#define SMADB_EXEC_SMA_GAGGR_H_

#include <atomic>
#include <memory>
#include <vector>

#include "exec/aggregate.h"
#include "exec/bucket_source.h"
#include "exec/operator.h"
#include "expr/predicate.h"
#include "sma/grade.h"
#include "storage/table.h"

namespace smadb::exec {

/// Experiment knobs; defaults are production behaviour.
struct SmaGAggrOptions {
  /// Demotes this fraction of buckets to ambivalent after grading
  /// (deterministically by bucket hash). Used by the Fig. 5 reproduction to
  /// control "the percentage of buckets that have to be investigated";
  /// results stay correct because ambivalent processing re-evaluates the
  /// predicate per tuple.
  double force_ambivalent_fraction = 0.0;
  uint64_t force_seed = 0x5eed;
  /// Worker count for the morsel-parallel path; 1 = serial (the paper's
  /// single synchronized pass, bit-identical to the pre-parallel engine).
  size_t degree_of_parallelism = 1;
  /// Degraded SMA-only mode (the bottom rung of the planner's degradation
  /// ladder, DESIGN.md §10): ambivalent buckets are *skipped* instead of
  /// fetched, so the answer covers qualifying buckets only. The result is a
  /// lower bound, NOT exact — callers must surface the partial marker
  /// (buckets_skipped() reports how many buckets went uninspected). This
  /// mode never configures, or charges, a column batch.
  bool sma_only = false;
};

struct BucketFolder;

class SmaGAggr final : public Operator {
 public:
  /// Binds the query (pred / group_by / aggs over `table`) against `smas`.
  /// Fails with NotSupported when some aggregate has no matching SMA — the
  /// planner then falls back to GAggr over SmaScan.
  static util::Result<std::unique_ptr<SmaGAggr>> Make(
      storage::Table* table, expr::PredicatePtr pred,
      std::vector<size_t> group_by, std::vector<AggSpec> aggs,
      const sma::SmaSet* smas, SmaGAggrOptions options = {});

  const storage::Schema& output_schema() const override { return schema_; }

  /// Pipeline breaker: "Within its init function, the result is computed."
  util::Status Init() override;

  /// "The next function then merely returns one result after another."
  util::Result<bool> NextBatch(Batch* out) override {
    return results_.Emit(out, prof_);
  }

  void BindContext(util::QueryContext* ctx) override {
    Operator::BindContext(ctx);
    BindProfile("SmaGAggr");
  }

  const SmaScanStats& stats() const { return stats_; }
  size_t num_groups() const { return results_.rows.size(); }

  /// Ambivalent buckets left uninspected by sma_only mode (0 otherwise).
  uint64_t buckets_skipped() const {
    return buckets_skipped_.load(std::memory_order_relaxed);
  }

 private:
  /// One aggregate's SMA source: the SMA and each SMA group's key projected
  /// onto the query's group-by columns. Immutable after Make — shared
  /// read-only by all workers.
  struct AggBinding {
    const sma::Sma* sma = nullptr;
    std::vector<std::vector<util::Value>> result_keys;
  };

  /// Per-worker SMA-file cursors (cursors pin pages; one set per thread,
  /// mirroring bindings_ + count_binding_).
  struct BindingCursors {
    std::vector<sma::SmaFile::Cursor> count;
    std::vector<std::vector<sma::SmaFile::Cursor>> per_agg;
  };

  SmaGAggr(storage::Table* table, expr::PredicatePtr pred,
           std::vector<size_t> group_by, std::vector<AggSpec> aggs,
           const sma::SmaSet* smas, storage::Schema schema,
           SmaGAggrOptions options)
      : table_(table),
        pred_(std::move(pred)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)),
        smas_(smas),
        schema_(std::move(schema)),
        options_(options) {}

  /// Finds a SMA for (func, arg signature) whose grouping refines the
  /// query's; builds the binding. Null sma on no match.
  AggBinding BindAggregate(sma::AggFunc func, const expr::Expr* arg) const;

  BindingCursors MakeCursors() const;

  /// Applies coverage and the demotion knob to a raw grade (thread-safe).
  sma::Grade EffectiveGrade(sma::Grade g, uint64_t b) const;

  /// Init minus the profile feed: Init wraps this so the final census in
  /// stats_ reaches the profile node exactly once on every path — success,
  /// mid-run failure, and the degraded sma_only rung alike.
  util::Status InitImpl();

  /// One bucket's phase-2 work, dispatched on its grade. `folder` decodes
  /// the worker's ambivalent buckets (null in sma_only mode).
  util::Status ProcessBucket(sma::Grade g, uint64_t b, GroupTable* groups,
                             BindingCursors* cursors, SmaScanStats* stats,
                             BucketFolder* folder);
  util::Status ProcessQualifying(GroupTable* groups, BindingCursors* cursors,
                                 uint64_t b);

  storage::Table* table_;
  expr::PredicatePtr pred_;
  std::vector<size_t> group_by_;
  std::vector<AggSpec> aggs_;
  const sma::SmaSet* smas_;
  storage::Schema schema_;
  SmaGAggrOptions options_;

  // One binding per aggregate (avg binds its sum SMA; count binds null and
  // rides on count_binding_), plus the mandatory count(*) binding.
  std::vector<AggBinding> bindings_;
  AggBinding count_binding_;
  uint64_t covered_buckets_ = 0;  // min SMA coverage across bindings

  RowEmitter results_;
  SmaScanStats stats_;
  // Atomic: bumped from parallel workers in sma_only mode.
  std::atomic<uint64_t> buckets_skipped_{0};
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_SMA_GAGGR_H_
