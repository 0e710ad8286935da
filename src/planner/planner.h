// Plan generation in the presence of SMAs (paper §3).
//
// The optimizer's job here is the one the paper flags as the "slight
// disadvantage" of SMAs: deciding *when* they pay off. The cost model is
// the empirical break-even of Fig. 5: SMA plans win while the fraction of
// buckets that must still be fetched stays below ~25%; beyond that a plain
// sequential scan is faster (and the erroneous-SMA overhead stays ~2%
// because grading reads only the tiny SMA-files).
//
// Plans for an aggregation query, best first:
//   SMA_GAggr            — aggregates from SMAs; fetches only ambivalent
//                          buckets. Needs matching aggregate SMAs.
//   GAggr ∘ SMA_Scan     — selection pruning only; fetches qualifying +
//                          ambivalent buckets.
//   GAggr ∘ TableScan    — the fallback the paper measures against.
// and for a selection, SMA_Scan or TableScan. Every plan is one operator
// making the same graded-stretch walk (exec/bucket_source.h): SmaGAggr for
// the aggregation plans (SmaGAggr::Make for SMA_GAggr, SmaGAggr::MakeScan
// for both GAggr forms) and SmaScan for the selections. The plan decides
// only what a qualifying bucket costs; the TableScan forms run without
// SMAs, so every bucket grades ambivalent.
//
// Degradation: SMA plans are only eligible while every SMA of the table is
// trusted and epoch-fresh (SmaSet::TrustIssue). A corrupt, stale, or
// verification-failed SMA demotes the plan to the sequential-scan form —
// queries keep answering correctly from base data, just slower — and the
// demotion is recorded in the plan explanation. Corruption discovered while
// grading or mid-run additionally condemns the owning SMA so the next
// SmaMaintainer::Rebuild() repairs it.

#ifndef SMADB_PLANNER_PLANNER_H_
#define SMADB_PLANNER_PLANNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/sma_gaggr.h"
#include "exec/sma_scan.h"
#include "sma/sma_set.h"
#include "util/query_context.h"

namespace smadb::plan {

/// A grouping-aggregation query block (select aggs ... where pred group by).
struct AggQuery {
  storage::Table* table = nullptr;
  expr::PredicatePtr pred;  // Predicate::True() when unrestricted
  std::vector<size_t> group_by;
  std::vector<exec::AggSpec> aggs;
};

/// A pure selection query block (select * ... where pred).
struct SelectQuery {
  storage::Table* table = nullptr;
  expr::PredicatePtr pred;
};

enum class PlanKind { kScanAggr, kSmaScanAggr, kSmaGAggr, kScan, kSmaScan };

std::string_view PlanKindToString(PlanKind k);

/// The chosen plan plus the bucket census that justified it.
struct PlanChoice {
  PlanKind kind = PlanKind::kScanAggr;
  uint64_t qualifying = 0;
  uint64_t disqualifying = 0;
  uint64_t ambivalent = 0;
  /// Fraction of buckets the chosen plan will fetch.
  double fetch_fraction = 1.0;
  /// Workers the plan will run with (1 = serial; chosen per plan so that
  /// small bucket counts never pay thread overhead).
  size_t dop = 1;
  /// Set when the answer is a degraded SMA-only partial result (ambivalent
  /// buckets skipped under deadline/budget pressure, DESIGN.md §10). A
  /// degraded answer is a lower bound, never silently passed off as exact —
  /// consumers must surface this marker.
  bool degraded = false;
  std::string explanation;

  uint64_t total_buckets() const {
    return qualifying + disqualifying + ambivalent;
  }
};

/// Fully materialized query result. The schema lives behind a shared_ptr
/// because each row's TupleBuffer refers to it; the indirection keeps those
/// references valid across moves of the QueryResult.
struct QueryResult {
  std::shared_ptr<const storage::Schema> schema;
  std::vector<storage::TupleBuffer> rows;
  PlanChoice plan;

  /// Formatted as a text table (column header + rows); empty without a
  /// schema (the result of `set`, `define sma`, `kill query`).
  std::string ToString() const;
};

struct PlannerOptions {
  /// Fig. 5 break-even: SMA plans are only chosen while the fraction of
  /// buckets they would fetch stays below this.
  double breakeven_fraction = 0.25;
  /// Force a plan regardless of cost (for experiments like Fig. 5's
  /// "erroneously applied" curve). kScanAggr means "no forcing".
  bool force_sma = false;
  /// Requested degree of parallelism for aggregation plans. 0 = auto
  /// (hardware concurrency), 1 = serial. The planner may lower it per plan:
  /// never more workers than morsels of fetch work, so tiny tables and
  /// highly pruned plans stay serial.
  size_t degree_of_parallelism = 0;
  /// Allow the bottom rung of the degradation ladder: when a SMA_GAggr plan
  /// runs out of deadline or memory, answer from SMAs alone (skipping
  /// ambivalent buckets) with an explicit `degraded` marker instead of
  /// failing. Off = the typed error propagates.
  bool allow_degraded = true;
};

class Planner {
 public:
  /// `smas` may be null (no SMAs on the table).
  explicit Planner(const sma::SmaSet* smas, PlannerOptions options = {})
      : smas_(smas), options_(options) {}

  /// Grades all buckets (cheap: SMA-files only) and picks a plan. `ctx`
  /// (optional) governs the grading pass itself — a deadline that expires
  /// during the census is observed per bucket.
  util::Result<PlanChoice> Choose(const AggQuery& query,
                                  const util::QueryContext* ctx = nullptr)
      const;
  util::Result<PlanChoice> ChooseSelect(
      const SelectQuery& query,
      const util::QueryContext* ctx = nullptr) const;

  /// Instantiates the one operator that runs a choice, with `dop` workers:
  /// SmaGAggr::Make for kSmaGAggr, and SmaGAggr::MakeScan for both scan
  /// plans (kSmaScanAggr grades buckets against the SMAs, kScanAggr reads
  /// every bucket). dop 1 runs the same morsel loop inline on the caller.
  /// BuildSelect runs kSmaScan as SmaScan over the SMAs and kScan as
  /// SmaScan without them.
  util::Result<std::unique_ptr<exec::Operator>> Build(const AggQuery& query,
                                                      PlanKind kind,
                                                      size_t dop = 1) const;
  util::Result<std::unique_ptr<exec::Operator>> BuildSelect(
      const SelectQuery& query, PlanKind kind) const;

  /// Choose + Build + run to completion. `ctx` (optional) is the query's
  /// runtime governor; when bound, failures walk the degradation ladder
  /// (DESIGN.md §10): a SMA_GAggr plan that cannot finish under its
  /// deadline/budget answers from SMAs alone with the result marked
  /// `degraded`. Typed errors (kCancelled, kDeadlineExceeded,
  /// kResourceExhausted) propagate when no rung applies — never a hang,
  /// never a silent wrong answer.
  util::Result<QueryResult> Execute(const AggQuery& query,
                                    util::QueryContext* ctx = nullptr) const;
  util::Result<QueryResult> ExecuteSelect(
      const SelectQuery& query, util::QueryContext* ctx = nullptr) const;

 private:
  /// Bucket census for a predicate: fills q/d/a of `choice`.
  util::Status Census(storage::Table* table, const expr::PredicatePtr& pred,
                      PlanChoice* choice,
                      const util::QueryContext* ctx) const;

  /// The step Choose and ChooseSelect share before costing the SMA plans:
  /// takes the census into `*choice` and returns true, or settles
  /// `*choice` as the sequential scan and returns false — when there are
  /// no SMAs, while a SMA is untrusted or stale, and when grading fails
  /// reading a SMA-file. Other census failures propagate.
  util::Result<bool> CensusOrScan(storage::Table* table,
                                  const expr::PredicatePtr& pred, bool select,
                                  PlanChoice* choice,
                                  const util::QueryContext* ctx) const;

  /// A sequential-scan choice over every bucket, explained by
  /// `explanation` (plus the dop for an aggregation).
  PlanChoice FullScan(const storage::Table* table, bool select,
                      const std::string& explanation) const;

  /// The bottom rung of the degradation ladder: a full-scan choice whose
  /// explanation records why the SMA plan was demoted.
  PlanChoice Demoted(const storage::Table* table, bool select,
                     const std::string& reason) const;

  /// The demotion rung Execute and ExecuteSelect share: `choice`'s SMA plan
  /// died mid-run on bad storage (`failure`), so it condemns the corrupt
  /// SMA and reruns the query from base data as the sequential scan that
  /// `build_scan` builds at the fallback's dop.
  util::Result<QueryResult> RerunDemoted(
      const storage::Table* table, bool select, const PlanChoice& choice,
      const util::Status& failure,
      const std::function<
          util::Result<std::unique_ptr<exec::Operator>>(size_t dop)>&
          build_scan,
      util::QueryContext* ctx) const;

  /// Condemns every SMA owning a file named in `s`'s message (checksum
  /// failures name the file), so the next Rebuild() repairs it.
  void DistrustCorrupted(const util::Status& s) const;

  /// Per-plan DOP: the requested (or hardware) worker count, capped at the
  /// number of morsels the `fetch_buckets` buckets to fetch fill.
  size_t PlanDop(const storage::Table* table, uint64_t fetch_buckets) const;

  const sma::SmaSet* smas_;
  PlannerOptions options_;
};

/// Runs any operator to completion, copying its output rows: the one place
/// where batches turn into rows. `ctx` (optional) adds a cooperative
/// checkpoint per batch.
util::Result<QueryResult> RunToCompletion(exec::Operator* op,
                                          const util::QueryContext* ctx =
                                              nullptr);

}  // namespace smadb::plan

#endif  // SMADB_PLANNER_PLANNER_H_
