#include "planner/planner.h"

#include "exec/parallel_aggr.h"
#include "obs/profile.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace smadb::plan {

using exec::GAggr;
using exec::Operator;
using exec::ParallelScanAggr;
using exec::SmaGAggr;
using exec::SmaScan;
using exec::TableScan;
using sma::Grade;
using storage::TupleBuffer;
using storage::TupleRef;
using util::Result;
using util::Status;
using util::StatusCode;

namespace {

// Appends the governor's budget/deadline summary and any degradation
// decisions to the plan explanation — same style as the fallback reasons
// (`explain` surfaces this verbatim).
void AnnotateGovernor(PlanChoice* plan, const util::QueryContext* ctx) {
  if (ctx == nullptr) return;
  const std::string gov = ctx->GovernorNote();
  if (!gov.empty()) plan->explanation += "; governor: " + gov;
  const std::string notes = ctx->DegradationNotes();
  if (!notes.empty()) plan->explanation += "; " + notes;
}

}  // namespace

std::string_view PlanKindToString(PlanKind k) {
  switch (k) {
    case PlanKind::kScanAggr:
      return "GAggr(TableScan)";
    case PlanKind::kSmaScanAggr:
      return "GAggr(SMA_Scan)";
    case PlanKind::kSmaGAggr:
      return "SMA_GAggr";
    case PlanKind::kScan:
      return "TableScan";
    case PlanKind::kSmaScan:
      return "SMA_Scan";
  }
  return "?";
}

std::string QueryResult::ToString() const {
  std::string out;
  for (size_t c = 0; c < schema->num_fields(); ++c) {
    if (c > 0) out += " | ";
    out += schema->field(c).name;
  }
  out += '\n';
  for (const TupleBuffer& row : rows) {
    const TupleRef ref = row.AsRef();
    for (size_t c = 0; c < schema->num_fields(); ++c) {
      if (c > 0) out += " | ";
      out += ref.GetValue(c).ToString();
    }
    out += '\n';
  }
  return out;
}

Status Planner::Census(storage::Table* table, const expr::PredicatePtr& pred,
                       PlanChoice* choice,
                       const util::QueryContext* ctx) const {
  exec::BucketSource source(table, pred, smas_);
  if (!source.has_sma_support()) {
    // No SMA grades anything; report everything ambivalent without reading.
    choice->ambivalent = table->num_buckets();
    return Status::OK();
  }
  exec::SmaScanStats stats;
  exec::BucketUnit unit;
  while (true) {
    SMADB_RETURN_NOT_OK(util::QueryContext::Check(ctx, "Census"));
    SMADB_ASSIGN_OR_RETURN(bool has, source.NextGraded(&unit));
    if (!has) break;
    stats.Tally(unit.grade);
  }
  choice->qualifying = stats.qualifying_buckets;
  choice->disqualifying = stats.disqualifying_buckets;
  choice->ambivalent = stats.ambivalent_buckets;
  return Status::OK();
}

PlanChoice Planner::Demoted(uint64_t total_buckets, bool select,
                            const std::string& reason) const {
  PlanChoice choice;
  choice.kind = select ? PlanKind::kScan : PlanKind::kScanAggr;
  choice.ambivalent = total_buckets;
  choice.fetch_fraction = 1.0;
  choice.dop = select ? 1 : PlanDop(total_buckets);
  choice.explanation = "demoted to sequential scan: " + reason;
  if (!select) choice.explanation += util::Format(", dop=%zu", choice.dop);
  return choice;
}

void Planner::DistrustCorrupted(const Status& s) const {
  if (smas_ == nullptr) return;
  for (const sma::Sma* sma : smas_->all()) {
    for (size_t g = 0; g < sma->num_groups(); ++g) {
      const std::string name =
          sma->pool()->disk()->FileName(sma->group_file(g)->file());
      if (!name.empty() &&
          s.message().find("'" + name + "'") != std::string::npos) {
        sma->MarkDistrusted(s.message());
      }
    }
  }
}

size_t Planner::PlanDop(uint64_t fetch_buckets) const {
  size_t requested = options_.degree_of_parallelism;
  if (requested == 0) requested = util::ThreadPool::DefaultDop();
  if (requested <= 1) return 1;
  // Each worker should own at least a handful of fetchable buckets;
  // otherwise thread startup dwarfs the per-morsel work.
  constexpr uint64_t kMinBucketsPerWorker = 4;
  const uint64_t cap =
      std::max<uint64_t>(1, fetch_buckets / kMinBucketsPerWorker);
  return static_cast<size_t>(
      std::min<uint64_t>(static_cast<uint64_t>(requested), cap));
}

Result<PlanChoice> Planner::Choose(const AggQuery& query,
                                   const util::QueryContext* ctx) const {
  PlanChoice choice;
  if (smas_ == nullptr || smas_->size() == 0) {
    choice.kind = PlanKind::kScanAggr;
    choice.ambivalent = query.table->num_buckets();
    choice.fetch_fraction = 1.0;
    choice.dop = PlanDop(choice.ambivalent);
    choice.explanation =
        util::Format("no SMAs available, dop=%zu", choice.dop);
    return choice;
  }
  const std::string trust_issue = smas_->TrustIssue();
  if (!trust_issue.empty()) {
    return Demoted(query.table->num_buckets(), /*select=*/false, trust_issue);
  }
  const Status census = Census(query.table, query.pred, &choice, ctx);
  if (!census.ok()) {
    if (census.code() == StatusCode::kCorruption) DistrustCorrupted(census);
    if (census.code() == StatusCode::kCorruption ||
        census.code() == StatusCode::kIOError) {
      // Grading failed reading a SMA-file; base data is still authoritative.
      return Demoted(query.table->num_buckets(), /*select=*/false,
                     "grading failed (" + census.message() + ")");
    }
    return census;
  }
  const double total =
      std::max<double>(1.0, static_cast<double>(choice.total_buckets()));
  const double ambivalent_frac =
      static_cast<double>(choice.ambivalent) / total;
  const double processed_frac =
      static_cast<double>(choice.qualifying + choice.ambivalent) / total;

  // Can SMA_GAggr be bound at all? (Probe construction; cheap.)
  const bool gaggr_available =
      SmaGAggr::Make(query.table, query.pred, query.group_by, query.aggs,
                     smas_)
          .ok();

  if (gaggr_available &&
      (options_.force_sma || ambivalent_frac < options_.breakeven_fraction)) {
    choice.kind = PlanKind::kSmaGAggr;
    choice.fetch_fraction = ambivalent_frac;
    choice.dop = PlanDop(choice.qualifying + choice.ambivalent);
    choice.explanation = util::Format(
        "SMA_GAggr fetches %.1f%% of buckets (break-even %.0f%%)",
        ambivalent_frac * 100.0, options_.breakeven_fraction * 100.0);
  } else if (choice.disqualifying > 0 &&
             (options_.force_sma ||
              processed_frac < options_.breakeven_fraction)) {
    choice.kind = PlanKind::kSmaScanAggr;
    choice.fetch_fraction = processed_frac;
    choice.dop = PlanDop(choice.qualifying + choice.ambivalent);
    choice.explanation = util::Format(
        "SMA_Scan fetches %.1f%% of buckets%s", processed_frac * 100.0,
        gaggr_available ? "" : " (no matching aggregate SMAs)");
  } else {
    choice.kind = PlanKind::kScanAggr;
    choice.fetch_fraction = 1.0;
    choice.dop = PlanDop(choice.total_buckets());
    choice.explanation = util::Format(
        "sequential scan: SMA plan would fetch %.1f%% of buckets "
        "(break-even %.0f%%)",
        (gaggr_available ? ambivalent_frac : processed_frac) * 100.0,
        options_.breakeven_fraction * 100.0);
  }
  choice.explanation += util::Format(", dop=%zu", choice.dop);
  return choice;
}

Result<PlanChoice> Planner::ChooseSelect(const SelectQuery& query,
                                         const util::QueryContext* ctx) const {
  PlanChoice choice;
  if (smas_ == nullptr || smas_->size() == 0) {
    choice.kind = PlanKind::kScan;
    choice.ambivalent = query.table->num_buckets();
    choice.fetch_fraction = 1.0;
    choice.explanation = "no SMAs available";
    return choice;
  }
  const std::string trust_issue = smas_->TrustIssue();
  if (!trust_issue.empty()) {
    return Demoted(query.table->num_buckets(), /*select=*/true, trust_issue);
  }
  const Status census = Census(query.table, query.pred, &choice, ctx);
  if (!census.ok()) {
    if (census.code() == StatusCode::kCorruption) DistrustCorrupted(census);
    if (census.code() == StatusCode::kCorruption ||
        census.code() == StatusCode::kIOError) {
      return Demoted(query.table->num_buckets(), /*select=*/true,
                     "grading failed (" + census.message() + ")");
    }
    return census;
  }
  const double total =
      std::max<double>(1.0, static_cast<double>(choice.total_buckets()));
  const double processed_frac =
      static_cast<double>(choice.qualifying + choice.ambivalent) / total;
  if (choice.disqualifying > 0 &&
      (options_.force_sma || processed_frac < options_.breakeven_fraction)) {
    choice.kind = PlanKind::kSmaScan;
    choice.fetch_fraction = processed_frac;
    choice.explanation =
        util::Format("SMA_Scan fetches %.1f%% of buckets",
                     processed_frac * 100.0);
  } else {
    choice.kind = PlanKind::kScan;
    choice.fetch_fraction = 1.0;
    choice.explanation = "sequential scan";
  }
  return choice;
}

Result<std::unique_ptr<Operator>> Planner::Build(const AggQuery& query,
                                                 PlanKind kind,
                                                 size_t dop) const {
  dop = std::max<size_t>(1, dop);
  switch (kind) {
    case PlanKind::kSmaGAggr: {
      exec::SmaGAggrOptions options;
      options.degree_of_parallelism = dop;
      SMADB_ASSIGN_OR_RETURN(
          std::unique_ptr<SmaGAggr> op,
          SmaGAggr::Make(query.table, query.pred, query.group_by, query.aggs,
                         smas_, options));
      return std::unique_ptr<Operator>(std::move(op));
    }
    case PlanKind::kSmaScanAggr: {
      if (dop > 1) {
        SMADB_ASSIGN_OR_RETURN(
            std::unique_ptr<ParallelScanAggr> op,
            ParallelScanAggr::Make(query.table, query.pred, query.group_by,
                                   query.aggs, smas_, dop));
        return std::unique_ptr<Operator>(std::move(op));
      }
      auto scan = std::make_unique<SmaScan>(query.table, query.pred, smas_);
      SMADB_ASSIGN_OR_RETURN(
          std::unique_ptr<GAggr> aggr,
          GAggr::Make(std::move(scan), query.group_by, query.aggs));
      return std::unique_ptr<Operator>(std::move(aggr));
    }
    case PlanKind::kScanAggr: {
      if (dop > 1) {
        SMADB_ASSIGN_OR_RETURN(
            std::unique_ptr<ParallelScanAggr> op,
            ParallelScanAggr::Make(query.table, query.pred, query.group_by,
                                   query.aggs, /*smas=*/nullptr, dop));
        return std::unique_ptr<Operator>(std::move(op));
      }
      auto scan = std::make_unique<TableScan>(query.table, query.pred);
      SMADB_ASSIGN_OR_RETURN(
          std::unique_ptr<GAggr> aggr,
          GAggr::Make(std::move(scan), query.group_by, query.aggs));
      return std::unique_ptr<Operator>(std::move(aggr));
    }
    default:
      return Status::InvalidArgument(
          "selection plan kind passed to aggregate Build");
  }
}

Result<std::unique_ptr<Operator>> Planner::BuildSelect(
    const SelectQuery& query, PlanKind kind) const {
  switch (kind) {
    case PlanKind::kSmaScan:
      return std::unique_ptr<Operator>(
          std::make_unique<SmaScan>(query.table, query.pred, smas_));
    case PlanKind::kScan:
      return std::unique_ptr<Operator>(
          std::make_unique<TableScan>(query.table, query.pred));
    default:
      return Status::InvalidArgument(
          "aggregate plan kind passed to BuildSelect");
  }
}

Result<QueryResult> RunToCompletion(Operator* op,
                                    const util::QueryContext* ctx) {
  SMADB_RETURN_NOT_OK(op->Init());
  QueryResult result;
  result.schema = std::make_shared<storage::Schema>(op->output_schema());
  exec::Batch batch;
  batch.Configure(&op->output_schema(), exec::kDefaultBatchSize);
  while (true) {
    SMADB_RETURN_NOT_OK(util::QueryContext::Check(ctx, "RunToCompletion"));
    SMADB_ASSIGN_OR_RETURN(bool has, op->NextBatch(&batch));
    if (!has) break;
    for (size_t k = 0; k < batch.sel.count(); ++k) {
      result.rows.emplace_back(result.schema.get());
      batch.cols.MaterializeRow(batch.sel.row(k), &result.rows.back());
    }
  }
  return result;
}

namespace {

// A plan can be retried from base data iff it depended on SMA-files and the
// failure is typed as bad/unreadable storage (a demotion cannot outrun an
// InvalidArgument, and rerunning on kResourceExhausted would just re-pin).
bool DemotableFailure(const Status& s) {
  return s.code() == util::StatusCode::kCorruption ||
         s.code() == util::StatusCode::kIOError;
}

}  // namespace

namespace {

uint64_t ElapsedNs(const util::Stopwatch& w) {
  return static_cast<uint64_t>(w.ElapsedSeconds() * 1e9);
}

}  // namespace

Result<QueryResult> Planner::Execute(const AggQuery& query,
                                     util::QueryContext* ctx) const {
  obs::QueryProfile* prof = ctx != nullptr ? ctx->profile() : nullptr;
  util::Stopwatch plan_watch;
  SMADB_ASSIGN_OR_RETURN(PlanChoice choice, Choose(query, ctx));
  SMADB_ASSIGN_OR_RETURN(std::unique_ptr<Operator> op,
                         Build(query, choice.kind, choice.dop));
  if (ctx != nullptr) op->BindContext(ctx);
  // Phases accumulate: a degradation-ladder rerun adds its own planning and
  // execution time into the same rows, so the report covers the whole query.
  obs::QueryProfile::Phase(prof, "plan", ElapsedNs(plan_watch));
  util::Stopwatch exec_watch;
  Result<QueryResult> run = RunToCompletion(op.get(), ctx);
  obs::QueryProfile::Phase(prof, "execute", ElapsedNs(exec_watch));
  if (run.ok()) {
    run->plan = choice;
    AnnotateGovernor(&run->plan, ctx);
    return run;
  }
  const bool sma_plan = choice.kind == PlanKind::kSmaGAggr ||
                        choice.kind == PlanKind::kSmaScanAggr;
  if (sma_plan && DemotableFailure(run.status())) {
    // The SMA plan died mid-run on bad storage. Base data is authoritative:
    // rerun as a sequential scan (which still surfaces base-table errors).
    if (run.status().code() == StatusCode::kCorruption) {
      DistrustCorrupted(run.status());
    }
    PlanChoice fallback =
        Demoted(query.table->num_buckets(), /*select=*/false,
                std::string(PlanKindToString(choice.kind)) +
                    " failed mid-run (" + run.status().message() + ")");
    obs::QueryProfile::Event(prof, "demoted to sequential scan: " +
                                       fallback.explanation);
    SMADB_ASSIGN_OR_RETURN(std::unique_ptr<Operator> rerun,
                           Build(query, PlanKind::kScanAggr, fallback.dop));
    if (ctx != nullptr) rerun->BindContext(ctx);
    util::Stopwatch rerun_watch;
    SMADB_ASSIGN_OR_RETURN(QueryResult result,
                           RunToCompletion(rerun.get(), ctx));
    obs::QueryProfile::Phase(prof, "execute", ElapsedNs(rerun_watch));
    result.plan = fallback;
    AnnotateGovernor(&result.plan, ctx);
    return result;
  }
  // Degradation ladder rung 2 (DESIGN.md §10): a SMA_GAggr plan that
  // cannot finish under its deadline or budget still answers from the
  // SMA-files alone — qualifying buckets only, ambivalent buckets skipped,
  // result explicitly marked degraded. The deadline is lifted and the
  // budget reset as grace: the SMA-only pass reads tiny files and never
  // configures a column batch.
  if (ctx != nullptr && options_.allow_degraded &&
      choice.kind == PlanKind::kSmaGAggr &&
      (run.status().code() == StatusCode::kResourceExhausted ||
       run.status().code() == StatusCode::kDeadlineExceeded)) {
    ctx->BeginDegradedRun("degraded to SMA-only partial answer (" +
                          run.status().message() + ")");
    obs::QueryProfile::Event(prof, "degraded to SMA-only partial answer (" +
                                       run.status().message() + ")");
    exec::SmaGAggrOptions sma_options;
    sma_options.degree_of_parallelism = choice.dop;
    sma_options.sma_only = true;  // never decodes bucket data
    SMADB_ASSIGN_OR_RETURN(
        std::unique_ptr<SmaGAggr> sma_op,
        SmaGAggr::Make(query.table, query.pred, query.group_by, query.aggs,
                       smas_, sma_options));
    sma_op->BindContext(ctx);
    util::Stopwatch degraded_watch;
    SMADB_ASSIGN_OR_RETURN(QueryResult result,
                           RunToCompletion(sma_op.get(), ctx));
    obs::QueryProfile::Phase(prof, "execute", ElapsedNs(degraded_watch));
    result.plan = choice;
    result.plan.degraded = true;
    result.plan.explanation += util::Format(
        "; partial: %llu ambivalent buckets skipped",
        static_cast<unsigned long long>(sma_op->buckets_skipped()));
    AnnotateGovernor(&result.plan, ctx);
    return result;
  }
  return run.status();
}

Result<QueryResult> Planner::ExecuteSelect(const SelectQuery& query,
                                           util::QueryContext* ctx) const {
  obs::QueryProfile* prof = ctx != nullptr ? ctx->profile() : nullptr;
  util::Stopwatch plan_watch;
  SMADB_ASSIGN_OR_RETURN(PlanChoice choice, ChooseSelect(query, ctx));
  SMADB_ASSIGN_OR_RETURN(std::unique_ptr<Operator> op,
                         BuildSelect(query, choice.kind));
  if (ctx != nullptr) op->BindContext(ctx);
  obs::QueryProfile::Phase(prof, "plan", ElapsedNs(plan_watch));
  util::Stopwatch exec_watch;
  Result<QueryResult> run = RunToCompletion(op.get(), ctx);
  obs::QueryProfile::Phase(prof, "execute", ElapsedNs(exec_watch));
  if (run.ok()) {
    run->plan = choice;
    AnnotateGovernor(&run->plan, ctx);
    return run;
  }
  if (choice.kind != PlanKind::kSmaScan || !DemotableFailure(run.status())) {
    // Selections have no SMA-only partial form (rows cannot be conjured
    // from summaries), so governor errors propagate typed.
    return run.status();
  }
  if (run.status().code() == StatusCode::kCorruption) {
    DistrustCorrupted(run.status());
  }
  PlanChoice fallback =
      Demoted(query.table->num_buckets(), /*select=*/true,
              std::string(PlanKindToString(choice.kind)) +
                  " failed mid-run (" + run.status().message() + ")");
  obs::QueryProfile::Event(prof, "demoted to sequential scan: " +
                                     fallback.explanation);
  SMADB_ASSIGN_OR_RETURN(std::unique_ptr<Operator> rerun,
                         BuildSelect(query, PlanKind::kScan));
  if (ctx != nullptr) rerun->BindContext(ctx);
  util::Stopwatch rerun_watch;
  SMADB_ASSIGN_OR_RETURN(QueryResult result, RunToCompletion(rerun.get(), ctx));
  obs::QueryProfile::Phase(prof, "execute", ElapsedNs(rerun_watch));
  result.plan = fallback;
  AnnotateGovernor(&result.plan, ctx);
  return result;
}

}  // namespace smadb::plan
