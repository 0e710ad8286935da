#include "exec/parallel_aggr.h"

#include <algorithm>

#include "exec/batch_aggregator.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace smadb::exec {

using sma::Grade;
using util::Result;
using util::Status;

Result<std::unique_ptr<ParallelScanAggr>> ParallelScanAggr::Make(
    storage::Table* table, expr::PredicatePtr pred,
    std::vector<size_t> group_by, std::vector<AggSpec> aggs,
    const sma::SmaSet* smas, size_t degree_of_parallelism) {
  SMADB_ASSIGN_OR_RETURN(storage::Schema schema,
                         AggResultSchema(table->schema(), group_by, aggs));
  const size_t dop = std::max<size_t>(1, degree_of_parallelism);
  return std::unique_ptr<ParallelScanAggr>(new ParallelScanAggr(
      table, std::move(pred), std::move(group_by), std::move(aggs), smas,
      std::move(schema), dop));
}

Status ParallelScanAggr::Init() {
  obs::OpTimer timer(prof_);
  const Status s = InitImpl();
  if (prof_ != nullptr) {
    // Single feed point for the merged census — InitImpl merges every
    // worker's partial stats into stats_ exactly once even when a morsel
    // fails, so a degraded-ladder rerun (which registers a fresh node)
    // can never double-count buckets in the profile.
    prof_->AddBuckets(stats_.qualifying_buckets, stats_.disqualifying_buckets,
                      stats_.ambivalent_buckets);
    prof_->SetDetail(
        util::Format("groups=%zu dop=%zu", results_.rows.size(), dop_));
    if (!s.ok()) prof_->MarkFailed(s.ToString());
  }
  return s;
}

Status ParallelScanAggr::InitImpl() {
  results_.Reset();
  stats_ = SmaScanStats();

  BucketSource source(table_, pred_, smas_);

  // Per-worker state: grader and folder hold page pins; the folder's
  // partial groups are the worker's private results, flushed into `groups`
  // after the parallel region and merged (and charged) there.
  struct WorkerState {
    std::unique_ptr<sma::BucketGrader> grader;
    BucketFolder folder;
    GroupTable groups;
    SmaScanStats stats;
    WorkerState(storage::Table* table, const std::vector<size_t>* group_by,
                const std::vector<AggSpec>* aggs)
        : folder(table, group_by, aggs), groups(aggs) {}
  };
  std::vector<WorkerState> workers;
  workers.reserve(dop_);
  for (size_t w = 0; w < dop_; ++w) {
    workers.emplace_back(table_, &group_by_, &aggs_);
    WorkerState& ws = workers.back();
    // Unconditional, like the serial NextGraded path: even without SMA
    // support the grader still resolves trivial predicates (True grades
    // kQualifies, letting workers skip per-tuple checks), and the census
    // the workers tally stays identical across degrees of parallelism.
    ws.grader = source.NewGrader();
    // Every worker reads the same consistent append prefix the source
    // captured; pages appended mid-run stay invisible.
    ws.folder.reader.set_snapshot(source.snapshot());
    std::vector<bool> mask = ws.folder.aggregator.RequiredColumns();
    pred_->AddReferencedColumns(&mask);
    SMADB_RETURN_NOT_OK(
        ConfigureBatch(&ws.folder.batch, &table_->schema(), std::move(mask)));
  }

  // The cancel token reaches the claim loop itself: once tripped, no new
  // morsel is scheduled, and ParallelFor's internal latch guarantees every
  // worker has exited before we read their partial state below.
  const util::CancelToken* cancel =
      ctx_ != nullptr ? ctx_->cancel() : nullptr;
  const Status par = util::ThreadPool::Shared()->ParallelFor(
      0, source.num_buckets(), dop_,
      [&](size_t w, uint64_t b) -> Status {
        WorkerState& ws = workers[w];
        // Bucket-granular checkpoint inside the morsel, so a deadline that
        // expires mid-run is observed even between claim-loop checks.
        SMADB_RETURN_NOT_OK(CheckRuntime("ParallelScanAggr"));
        // GradeLatched = shared latch during grading + boundary-bucket
        // demotion, keeping the worker census identical to the serial path.
        SMADB_ASSIGN_OR_RETURN(Grade g,
                               source.GradeLatched(ws.grader.get(), b));
        ws.stats.Tally(g);
        if (g == Grade::kDisqualifies) return Status::OK();
        // The grade maps onto the selection vector: qualifying buckets keep
        // the dense all-rows selection with no predicate evaluation.
        return ws.folder.Fold(
            b, g == Grade::kQualifies ? nullptr : pred_.get());
      },
      cancel);

  // Per-worker censuses merge into stats_ exactly once, success or
  // failure — ParallelFor has drained, so worker state is quiescent. The
  // pre-fix code returned before this loop on a failed morsel, dropping
  // the partial census a degraded-ladder rerun would then re-count.
  for (WorkerState& ws : workers) {
    stats_.Merge(ws.stats);
    if (prof_ != nullptr) {
      prof_->AddPagesRead(ws.folder.reader.pages_opened());
    }
  }
  SMADB_RETURN_NOT_OK(par);

  GroupTable groups(&aggs_);
  for (WorkerState& ws : workers) {
    ws.folder.aggregator.FlushInto(&ws.groups);
    const size_t before = groups.approx_bytes();
    groups.MergeFrom(ws.groups);
    // Merge-phase growth carries its own component name so a budget trip
    // here is attributable to the merge, not the scan.
    if (groups.approx_bytes() > before) {
      SMADB_RETURN_NOT_OK(
          ChargeMemory(groups.approx_bytes() - before, "GroupTable.merge"));
    }
  }
  return groups.Emit(&schema_, &results_.rows);
}

}  // namespace smadb::exec
