#include "exec/sma_gaggr.h"

#include <algorithm>

#include "exec/batch_aggregator.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace smadb::exec {

using sma::AggFunc;
using sma::Grade;
using sma::Sma;
using util::Result;
using util::Status;
using util::Value;

namespace {

// func/kind correspondence between query aggregates and SMA functions.
AggFunc SmaFuncFor(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kAvg:
      return AggFunc::kSum;
    case AggKind::kCount:
      return AggFunc::kCount;
    case AggKind::kMin:
      return AggFunc::kMin;
    case AggKind::kMax:
      return AggFunc::kMax;
  }
  return AggFunc::kCount;
}

// True when every query group-by column appears in the SMA's group-by
// (the SMA grouping refines the query grouping).
bool GroupingRefines(const std::vector<size_t>& query_groups,
                     const std::vector<size_t>& sma_groups) {
  for (size_t qcol : query_groups) {
    if (std::find(sma_groups.begin(), sma_groups.end(), qcol) ==
        sma_groups.end()) {
      return false;
    }
  }
  return true;
}

}  // namespace

SmaGAggr::AggBinding SmaGAggr::BindAggregate(AggFunc func,
                                             const expr::Expr* arg) const {
  AggBinding binding;
  const std::string arg_sig = arg != nullptr ? arg->ToString() : "";
  const Sma* best = nullptr;
  for (const Sma* sma : smas_->all()) {
    const sma::SmaSpec& spec = sma->spec();
    if (spec.func != func) continue;
    const std::string spec_sig =
        spec.arg != nullptr ? spec.arg->ToString() : "";
    if (spec_sig != arg_sig) continue;
    if (!GroupingRefines(group_by_, spec.group_by)) continue;
    // Prefer the coarsest refining grouping (fewest files to read).
    if (best == nullptr ||
        spec.group_by.size() < best->spec().group_by.size()) {
      best = sma;
    }
  }
  if (best == nullptr) return binding;

  binding.sma = best;
  // Project each SMA group key onto the query group-by columns.
  std::vector<size_t> positions;  // query col -> index in SMA group key
  for (size_t qcol : group_by_) {
    const auto& sg = best->spec().group_by;
    positions.push_back(static_cast<size_t>(
        std::find(sg.begin(), sg.end(), qcol) - sg.begin()));
  }
  for (size_t g = 0; g < best->num_groups(); ++g) {
    const std::vector<Value>& key = best->group_key(g);
    std::vector<Value> projected;
    projected.reserve(positions.size());
    for (size_t pos : positions) projected.push_back(key[pos]);
    binding.result_keys.push_back(std::move(projected));
  }
  return binding;
}

SmaGAggr::BindingCursors SmaGAggr::MakeCursors() const {
  BindingCursors cursors;
  for (size_t g = 0; g < count_binding_.sma->num_groups(); ++g) {
    cursors.count.push_back(count_binding_.sma->group_file(g)->NewCursor());
  }
  for (const AggBinding& binding : bindings_) {
    std::vector<sma::SmaFile::Cursor> agg_cursors;
    if (binding.sma != nullptr) {
      for (size_t g = 0; g < binding.sma->num_groups(); ++g) {
        agg_cursors.push_back(binding.sma->group_file(g)->NewCursor());
      }
    }
    cursors.per_agg.push_back(std::move(agg_cursors));
  }
  return cursors;
}

Result<std::unique_ptr<SmaGAggr>> SmaGAggr::Make(
    storage::Table* table, expr::PredicatePtr pred,
    std::vector<size_t> group_by, std::vector<AggSpec> aggs,
    const sma::SmaSet* smas, SmaGAggrOptions options) {
  SMADB_ASSIGN_OR_RETURN(storage::Schema schema,
                         AggResultSchema(table->schema(), group_by, aggs));
  std::unique_ptr<SmaGAggr> op(
      new SmaGAggr(table, std::move(pred), std::move(group_by),
                   std::move(aggs), smas, std::move(schema), options));

  // The count(*) binding is mandatory (group cardinalities + emptiness).
  op->count_binding_ = op->BindAggregate(AggFunc::kCount, nullptr);
  if (op->count_binding_.sma == nullptr) {
    return Status::NotSupported(
        "SMA_GAggr needs a count(*) SMA whose grouping refines the query's");
  }
  op->covered_buckets_ = op->count_binding_.sma->num_buckets();

  for (const AggSpec& a : op->aggs_) {
    AggBinding binding;
    if (a.kind == AggKind::kCount) {
      // Rides on count_binding_; leave sma null in bindings_.
    } else {
      binding = op->BindAggregate(SmaFuncFor(a.kind), a.arg.get());
      if (binding.sma == nullptr) {
        return Status::NotSupported(util::Format(
            "no SMA matches aggregate %s(%s) with the query's grouping",
            std::string(AggKindToString(a.kind)).c_str(),
            a.arg->ToString().c_str()));
      }
      op->covered_buckets_ =
          std::min(op->covered_buckets_, binding.sma->num_buckets());
    }
    op->bindings_.push_back(std::move(binding));
  }
  return op;
}

Status SmaGAggr::ProcessQualifying(GroupTable* groups,
                                   BindingCursors* cursors, uint64_t b) {
  // Direct answers read aggregate values straight out of the SMA entries, so
  // the bucket's shared latch must exclude a concurrent maintainer folding a
  // fresh append into those entries mid-read. (Grading only needs superset
  // soundness; direct answers need the exact snapshot value — the boundary
  // bucket was already demoted to ambivalent for that reason.)
  auto latch = table_->latches()->LockShared(b);
  // Group cardinalities first: they establish which groups exist.
  for (size_t g = 0; g < cursors->count.size(); ++g) {
    SMADB_ASSIGN_OR_RETURN(int64_t count, cursors->count[g].Get(b));
    if (count > 0) {
      groups->Get(count_binding_.result_keys[g])->AddBucketCount(count);
    }
  }
  // Then each aggregate from its own SMA.
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggBinding& binding = bindings_[i];
    if (binding.sma == nullptr) continue;  // count(*): handled above
    std::vector<sma::SmaFile::Cursor>& agg_cursors = cursors->per_agg[i];
    for (size_t g = 0; g < agg_cursors.size(); ++g) {
      SMADB_ASSIGN_OR_RETURN(int64_t v, agg_cursors[g].Get(b));
      if (binding.sma->IsUndefined(v)) continue;  // empty min/max group
      if (v == 0 && (binding.sma->spec().func == AggFunc::kSum)) {
        // Zero sums are identity; skip the group-table touch.
        continue;
      }
      groups->Get(binding.result_keys[g])->AddSummary(i, v);
    }
  }
  return Status::OK();
}

Grade SmaGAggr::EffectiveGrade(Grade g, uint64_t b) const {
  // A qualifying bucket beyond aggregate-SMA coverage must be inspected.
  if (g == Grade::kQualifies && b >= covered_buckets_) {
    g = Grade::kAmbivalent;
  }
  // Experiment knob: demote a deterministic fraction of buckets so the
  // Fig. 5 sweep can control the investigated percentage.
  if (options_.force_ambivalent_fraction > 0.0) {
    util::Rng bucket_rng(options_.force_seed ^ (b * 0x9E3779B9ULL));
    if (bucket_rng.NextDouble() < options_.force_ambivalent_fraction) {
      g = Grade::kAmbivalent;
    }
  }
  return g;
}

Status SmaGAggr::ProcessBucket(Grade g, uint64_t b, GroupTable* groups,
                               BindingCursors* cursors, SmaScanStats* stats,
                               BucketFolder* folder) {
  // Bucket-granular cooperative checkpoint (every grade, every worker).
  SMADB_RETURN_NOT_OK(CheckRuntime("SmaGAggr"));
  g = EffectiveGrade(g, b);
  stats->Tally(g);
  switch (g) {
    case Grade::kQualifies:
      return ProcessQualifying(groups, cursors, b);
    case Grade::kDisqualifies:
      return Status::OK();  // "do nothing"
    case Grade::kAmbivalent:
      if (options_.sma_only) {
        // Degraded rung: leave the bucket uninspected; the caller marks the
        // answer partial via buckets_skipped().
        buckets_skipped_.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }
      // Decode the bucket; the folder's reader clamps to the execution's
      // snapshot and its latch keeps writers out of the page being read.
      return folder->Fold(b, pred_.get());
  }
  return Status::OK();
}

Status SmaGAggr::Init() {
  obs::OpTimer timer(prof_);
  const Status s = InitImpl();
  if (prof_ != nullptr) {
    // Single feed point: stats_ is final here on every path (the parallel
    // branch merges per-worker censuses into it exactly once, including
    // when a morsel failed), so the profile can never double-count a
    // bucket — degraded-ladder reruns register a fresh node.
    prof_->AddBuckets(stats_.qualifying_buckets, stats_.disqualifying_buckets,
                      stats_.ambivalent_buckets);
    prof_->AddBucketsSkipped(buckets_skipped());
    prof_->SetDetail(util::Format(
        "groups=%zu dop=%zu%s", results_.rows.size(),
        std::max<size_t>(1, options_.degree_of_parallelism),
        options_.sma_only ? " sma_only" : ""));
    if (!s.ok()) prof_->MarkFailed(s.ToString());
  }
  return s;
}

Status SmaGAggr::InitImpl() {
  results_.Reset();
  stats_ = SmaScanStats();
  buckets_skipped_.store(0, std::memory_order_relaxed);

  BucketSource source(table_, pred_, smas_);
  GroupTable groups(&aggs_);
  const size_t dop =
      std::max<size_t>(1, options_.degree_of_parallelism);

  // Ambivalent readers clamp to the source's consistent append prefix;
  // qualifying buckets answer from SMA entries under the bucket's shared
  // latch. SMA-only mode skips ambivalent buckets, so it has no batch.
  using FolderPtr = std::unique_ptr<BucketFolder>;
  auto make_folder = [&]() -> Result<FolderPtr> {
    if (options_.sma_only) return FolderPtr();
    auto folder = std::make_unique<BucketFolder>(table_, &group_by_, &aggs_);
    folder->reader.set_snapshot(source.snapshot());
    std::vector<bool> mask = folder->aggregator.RequiredColumns();
    pred_->AddReferencedColumns(&mask);
    SMADB_RETURN_NOT_OK(
        ConfigureBatch(&folder->batch, &table_->schema(), std::move(mask)));
    return folder;
  };

  if (dop == 1) {
    // The paper's single synchronized pass over relation and SMA-files.
    BindingCursors cursors = MakeCursors();
    SMADB_ASSIGN_OR_RETURN(FolderPtr folder, make_folder());
    size_t charged = 0;
    BucketUnit unit;
    while (true) {
      SMADB_ASSIGN_OR_RETURN(bool has, source.NextGraded(&unit));
      if (!has) break;
      SMADB_RETURN_NOT_OK(ProcessBucket(unit.grade, unit.bucket, &groups,
                                        &cursors, &stats_,
                                        folder.get()));
      if (groups.approx_bytes() > charged) {
        SMADB_RETURN_NOT_OK(
            ChargeMemory(groups.approx_bytes() - charged, "GroupTable"));
        charged = groups.approx_bytes();
      }
    }
    if (folder != nullptr) {
      folder->aggregator.FlushInto(&groups);
      if (prof_ != nullptr) {
        prof_->AddPagesRead(folder->reader.pages_opened());
      }
    }
    if (groups.approx_bytes() > charged) {
      SMADB_RETURN_NOT_OK(
          ChargeMemory(groups.approx_bytes() - charged, "GroupTable"));
    }
  } else {
    // Morsel-parallel: per-worker grader, cursors, census, group table and
    // batch; exact merge afterwards.
    struct WorkerState {
      std::unique_ptr<sma::BucketGrader> grader;
      BindingCursors cursors;
      GroupTable groups;
      SmaScanStats stats;
      FolderPtr folder;
      size_t charged = 0;  // bytes of `groups` already charged
      explicit WorkerState(const std::vector<AggSpec>* aggs)
          : groups(aggs) {}
    };
    std::vector<WorkerState> workers;
    workers.reserve(dop);
    for (size_t w = 0; w < dop; ++w) {
      workers.emplace_back(&aggs_);
      workers.back().grader = source.NewGrader();
      workers.back().cursors = MakeCursors();
      SMADB_ASSIGN_OR_RETURN(workers.back().folder, make_folder());
    }
    // The cancel token flows into the claim loop: once it trips, no further
    // morsel is scheduled and the pool drains before we touch worker state.
    const util::CancelToken* cancel =
        ctx_ != nullptr ? ctx_->cancel() : nullptr;
    const Status par = util::ThreadPool::Shared()->ParallelFor(
        0, source.num_buckets(), dop,
        [&](size_t w, uint64_t b) -> Status {
          WorkerState& ws = workers[w];
          // GradeLatched = shared latch during grading + boundary-bucket
          // demotion, so worker censuses match the serial NextGraded path.
          SMADB_ASSIGN_OR_RETURN(Grade g,
                                 source.GradeLatched(ws.grader.get(), b));
          SMADB_RETURN_NOT_OK(ProcessBucket(g, b, &ws.groups, &ws.cursors,
                                            &ws.stats,
                                            ws.folder.get()));
          if (ws.groups.approx_bytes() > ws.charged) {
            SMADB_RETURN_NOT_OK(ChargeMemory(
                ws.groups.approx_bytes() - ws.charged, "GroupTable"));
            ws.charged = ws.groups.approx_bytes();
          }
          return Status::OK();
        },
        cancel);
    // Per-worker censuses merge into stats_ exactly once, success or
    // failure — the pool has drained, so worker state is quiescent. The
    // pre-fix code returned before this loop on a failed morsel, dropping
    // the partial census a degraded-ladder rerun would then re-count.
    for (WorkerState& ws : workers) {
      stats_.Merge(ws.stats);
      if (prof_ != nullptr && ws.folder != nullptr) {
        prof_->AddPagesRead(ws.folder->reader.pages_opened());
      }
    }
    SMADB_RETURN_NOT_OK(par);
    for (WorkerState& ws : workers) {
      if (ws.folder != nullptr) {
        ws.folder->aggregator.FlushInto(&ws.groups);
      }
      const size_t before = groups.approx_bytes();
      groups.MergeFrom(ws.groups);
      // Merge-phase growth is charged under its own component so budget
      // failures name the phase that tripped them.
      if (groups.approx_bytes() > before) {
        SMADB_RETURN_NOT_OK(ChargeMemory(groups.approx_bytes() - before,
                                         "GroupTable.merge"));
      }
    }
  }

  // Phase 3 (average finalization) happens inside Emit/Finalize.
  return groups.Emit(&schema_, &results_.rows);
}

}  // namespace smadb::exec
