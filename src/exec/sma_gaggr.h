// SmaGAggr: every grouping-aggregation plan, as one operator.
//
// SMA_GAggr (paper §3.3, Fig. 7) computes the grouping-aggregation from
// SMAs: selection SMAs partition the buckets; for qualifying buckets the
// queried aggregates are advanced straight from the aggregate SMA entries,
// only ambivalent buckets are fetched (decoded into column batches,
// filtered with EvalBatch and folded by the BatchAggregator kernels), and
// averages are finalized as sum/count in the last phase. The operator
// scans the relation and all SMA-files "in parallel" (one synchronized
// sequential pass). GAggr over SMA_Scan (§3.2) and over a plain scan make
// the same walk, except that a qualifying bucket is fetched — without
// predicate evaluation — instead of answered; MakeScan builds that form,
// which has no bindings and, without SMAs, grades every bucket ambivalent.
//
// Matching rules: an aggregate SMA serves a query aggregate when function
// and argument expression match and the SMA's grouping *refines* the
// query's (query group-by columns ⊆ SMA group-by columns; SMA groups are
// projected onto query groups, cf. §2.3 "a SMA has to reflect the grouping
// of the query or a finer grouping"). A count(*) SMA with compatible
// grouping is always required: it carries group cardinalities (for count
// and avg results) and decides which groups have qualifying tuples at all.
//
// One morsel loop serves every plan and degree of parallelism: a morsel is
// a run of consecutive buckets spanning one read run (one latch group), and
// workers claim morsels through ParallelFor (dop 1 runs the loop inline on
// the caller — the paper's one synchronized pass). A worker grades the
// morsel's buckets under one shared latch acquire. SMA_GAggr keeps that
// latch to answer the qualifying buckets from the same SMA-file entry
// ranges: each bound SMA group file's entries for the morsel are read off
// the pinned page and the qualifying ones folded into flat per-worker
// accumulators indexed [SMA][SMA group] (count and sum add, min/max keep
// the extreme and skip undefined entries). After releasing the latch the
// worker reads the morsel's fetched buckets through its StretchReader and
// folds them into its BatchAggregator. Each worker flushes its accumulators
// and partial groups into its GroupTable once, projecting SMA groups onto
// query groups, and the partial tables are merged at the end — exact,
// because sum/count/min/max (and avg as sum+count) compose associatively
// and commutatively.

#ifndef SMADB_EXEC_SMA_GAGGR_H_
#define SMADB_EXEC_SMA_GAGGR_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
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
  /// Workers for the morsel loop; 1 runs it inline on the caller (the
  /// paper's single synchronized pass).
  size_t degree_of_parallelism = 1;
  /// Degraded SMA-only mode (the bottom rung of the planner's degradation
  /// ladder, DESIGN.md §10): ambivalent buckets are *skipped* instead of
  /// fetched, so the answer covers qualifying buckets only. The result is a
  /// lower bound, NOT exact — callers must surface the partial marker
  /// (buckets_skipped() reports how many buckets went uninspected). This
  /// mode never configures, or charges, a column batch.
  bool sma_only = false;
};

class SmaGAggr final : public Operator {
 public:
  /// SMA_GAggr: binds the query (pred / group_by / aggs over `table`)
  /// against `smas`. Fails with NotSupported when some aggregate has no
  /// matching SMA — the planner then falls back to GAggr over SMA_Scan.
  static util::Result<std::unique_ptr<SmaGAggr>> Make(
      storage::Table* table, expr::PredicatePtr pred,
      std::vector<size_t> group_by, std::vector<AggSpec> aggs,
      const sma::SmaSet* smas, SmaGAggrOptions options = {});

  /// GAggr over SMA_Scan: fetches every bucket that does not disqualify,
  /// a qualifying one without predicate evaluation. `smas` may be null:
  /// every bucket then grades ambivalent, which is GAggr over the plain
  /// scan. Fails when `aggs` is empty, a group-by column is out of range or
  /// an aggregate's argument is not integral-family (AggResultSchema).
  static util::Result<std::unique_ptr<SmaGAggr>> MakeScan(
      storage::Table* table, expr::PredicatePtr pred,
      std::vector<size_t> group_by, std::vector<AggSpec> aggs,
      const sma::SmaSet* smas, size_t degree_of_parallelism);

  const storage::Schema& output_schema() const override { return schema_; }

  /// Pipeline breaker: "Within its init function, the result is computed."
  util::Status Init() override;

  /// "The next function then merely returns one result after another."
  util::Result<bool> NextBatch(Batch* out) override {
    return results_.Emit(out, prof_);
  }

  void BindContext(util::QueryContext* ctx) override {
    Operator::BindContext(ctx);
    BindProfile(name());
  }

  /// Merged bucket census across all workers (the same at every dop).
  const SmaScanStats& stats() const { return stats_; }
  size_t degree_of_parallelism() const {
    return std::max<size_t>(1, options_.degree_of_parallelism);
  }

  /// Ambivalent buckets left uninspected by sma_only mode (0 otherwise).
  uint64_t buckets_skipped() const {
    return buckets_skipped_.load(std::memory_order_relaxed);
  }

 private:
  /// One aggregate's SMA source: the SMA and each SMA group's key projected
  /// onto the query's group-by columns. Set up before the morsel loop
  /// starts — shared read-only by all workers.
  struct AggBinding {
    const sma::Sma* sma = nullptr;
    /// Query group-by column -> index in the SMA's group key.
    std::vector<size_t> positions;
    std::vector<std::vector<util::Value>> result_keys;
  };

  /// One worker's private state (defined in sma_gaggr.cc).
  struct Worker;

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

  /// True for SMA_GAggr, whose qualifying buckets answer from SMA entries;
  /// false for the scan form (MakeScan), which fetches them.
  bool answers() const { return !sources_.empty(); }

  /// Profile node and checkpoint name.
  const char* name() const { return answers() ? "SmaGAggr" : "ScanAggr"; }

  /// Finds a SMA for (func, arg signature) whose grouping refines the
  /// query's; builds the binding. Null sma on no match.
  AggBinding BindAggregate(sma::AggFunc func, const expr::Expr* arg) const;

  /// Projects the SMA groups created since the last call onto the query's
  /// group-by columns (appends to result_keys).
  static void ProjectGroups(AggBinding* binding);

  /// Applies coverage and the demotion knob to a raw grade (thread-safe).
  sma::Grade EffectiveGrade(sma::Grade g, uint64_t b) const;

  /// Init minus the profile feed: Init wraps this so the final census in
  /// stats_ reaches the profile node exactly once on every path — success,
  /// mid-run failure, and the degraded sma_only rung alike.
  util::Status InitImpl();

  /// Phase 2 over morsel `m`: grades its buckets under one shared latch
  /// acquire, answering SMA_GAggr's qualifying ones from SMA entries in the
  /// same hold, skips disqualifying ones, then folds the fetched ones
  /// through the worker's StretchReader (sma_only mode skips them instead).
  util::Status ProcessMorsel(const BucketSource& source, uint64_t m,
                             Worker* worker);

  /// Folds the entries of buckets [first, end) whose grade (grades[0,
  /// end - first)) is qualifying into the worker's accumulators, one range
  /// read per bound SMA group file. The caller holds the latch.
  util::Status AnswerQualifying(uint64_t first, uint64_t end,
                                const sma::Grade* grades,
                                Worker* worker) const;

  /// Folds the worker's accumulators into its GroupTable.
  void FlushAnswers(Worker* worker) const;

  storage::Table* table_;
  expr::PredicatePtr pred_;
  std::vector<size_t> group_by_;
  std::vector<AggSpec> aggs_;
  const sma::SmaSet* smas_;
  storage::Schema schema_;
  SmaGAggrOptions options_;

  // One binding per aggregate (avg binds its sum SMA; count binds null and
  // rides on count_binding_), plus the mandatory count(*) binding.
  // The scan form binds nothing.
  std::vector<AggBinding> bindings_;
  AggBinding count_binding_;
  // Min SMA coverage across bindings; the scan form demotes no bucket.
  uint64_t covered_buckets_ = UINT64_MAX;
  // The distinct SMAs direct answers read: sources_[0] is count_binding_,
  // then one per distinct aggregate SMA (avg shares its sum's);
  // agg_source_[i] indexes aggregate i's source. Empty in the scan form.
  std::vector<const AggBinding*> sources_;
  std::vector<size_t> agg_source_;

  RowEmitter results_;
  SmaScanStats stats_;
  // Atomic: bumped from parallel workers in sma_only mode.
  std::atomic<uint64_t> buckets_skipped_{0};
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_SMA_GAGGR_H_
