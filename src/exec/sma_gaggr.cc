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

struct SmaGAggr::Worker {
  std::unique_ptr<sma::BucketGrader> grader;
  BindingCursors cursors;
  GroupTable groups;
  SmaScanStats stats;
  // Decodes the ambivalent stretches; null in sma_only mode.
  std::unique_ptr<BucketFolder> folder;
  size_t charged = 0;  // bytes of `groups` already charged
  explicit Worker(const std::vector<AggSpec>* aggs) : groups(aggs) {}
};

Status SmaGAggr::ProcessMorsel(const BucketSource& source, uint64_t m,
                               Worker* worker) {
  const auto [first, end] = source.Morsel(m);
  uint64_t stretch = first;  // first ambivalent bucket not folded yet
  // Decodes the ambivalent buckets [stretch, stop); the folder's reader
  // clamps to the execution's snapshot and latches each bucket it reads.
  const auto fold = [&](uint64_t stop) -> Status {
    if (stretch == stop || worker->folder == nullptr) return Status::OK();
    return worker->folder->Fold(stretch, stop, pred_.get());
  };
  for (uint64_t b = first; b < end; ++b) {
    // Bucket-granular cooperative checkpoint (every grade, every worker).
    SMADB_RETURN_NOT_OK(CheckRuntime("SmaGAggr"));
    // GradeLatched = shared latch during grading + boundary-bucket
    // demotion, so the census is identical at every dop.
    SMADB_ASSIGN_OR_RETURN(Grade g,
                           source.GradeLatched(worker->grader.get(), b));
    g = EffectiveGrade(g, b);
    worker->stats.Tally(g);
    if (g == Grade::kAmbivalent) {
      // Degraded rung: leave the bucket uninspected; the caller marks the
      // answer partial via buckets_skipped().
      if (options_.sma_only) {
        buckets_skipped_.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    SMADB_RETURN_NOT_OK(fold(b));
    stretch = b + 1;
    if (g == Grade::kQualifies) {
      SMADB_RETURN_NOT_OK(
          ProcessQualifying(&worker->groups, &worker->cursors, b));
    }
    // A disqualifying bucket: "do nothing".
  }
  return fold(end);
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
  const size_t dop =
      std::max<size_t>(1, options_.degree_of_parallelism);

  // Per-worker grader, cursors, census, group table and folder; exact merge
  // afterwards. Ambivalent readers clamp to the source's consistent append
  // prefix; qualifying buckets answer from SMA entries under the bucket's
  // shared latch. SMA-only mode skips ambivalent buckets, so it has no
  // batch.
  std::vector<Worker> workers;
  workers.reserve(dop);
  for (size_t w = 0; w < dop; ++w) {
    workers.emplace_back(&aggs_);
    Worker& worker = workers.back();
    worker.grader = source.NewGrader();
    worker.cursors = MakeCursors();
    if (options_.sma_only) continue;
    worker.folder =
        std::make_unique<BucketFolder>(table_, &group_by_, &aggs_);
    worker.folder->reader.set_snapshot(source.snapshot());
    std::vector<bool> mask = worker.folder->aggregator.RequiredColumns();
    pred_->AddReferencedColumns(&mask);
    SMADB_RETURN_NOT_OK(ConfigureBatch(&worker.folder->batch,
                                       &table_->schema(), std::move(mask)));
  }
  // The cancel token flows into the claim loop: once it trips, no further
  // morsel is scheduled and the pool drains before we touch worker state.
  const util::CancelToken* cancel =
      ctx_ != nullptr ? ctx_->cancel() : nullptr;
  const Status par = util::ThreadPool::Shared()->ParallelFor(
      0, source.num_morsels(), dop,
      [&](size_t w, uint64_t m) -> Status {
        Worker& worker = workers[w];
        SMADB_RETURN_NOT_OK(ProcessMorsel(source, m, &worker));
        if (worker.groups.approx_bytes() > worker.charged) {
          SMADB_RETURN_NOT_OK(ChargeMemory(
              worker.groups.approx_bytes() - worker.charged, "GroupTable"));
          worker.charged = worker.groups.approx_bytes();
        }
        return Status::OK();
      },
      cancel);
  // Per-worker censuses merge into stats_ exactly once, success or
  // failure — the pool has drained, so worker state is quiescent — so a
  // degraded-ladder rerun never re-counts a failed run's buckets.
  for (Worker& worker : workers) {
    stats_.Merge(worker.stats);
    if (prof_ != nullptr && worker.folder != nullptr) {
      prof_->AddPagesRead(worker.folder->reader.pages_opened());
    }
  }
  SMADB_RETURN_NOT_OK(par);
  GroupTable groups(&aggs_);
  for (Worker& worker : workers) {
    if (worker.folder != nullptr) {
      worker.folder->aggregator.FlushInto(&worker.groups);
    }
    const size_t before = groups.approx_bytes();
    groups.MergeFrom(worker.groups);
    // Merge-phase growth is charged under its own component so budget
    // failures name the phase that tripped them.
    if (groups.approx_bytes() > before) {
      SMADB_RETURN_NOT_OK(ChargeMemory(groups.approx_bytes() - before,
                                       "GroupTable.merge"));
    }
  }

  // Phase 3 (average finalization) happens inside Emit/Finalize.
  return groups.Emit(&schema_, &results_.rows);
}

}  // namespace smadb::exec
