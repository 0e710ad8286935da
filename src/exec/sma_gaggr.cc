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
  const auto& sg = best->spec().group_by;
  for (size_t qcol : group_by_) {
    binding.positions.push_back(static_cast<size_t>(
        std::find(sg.begin(), sg.end(), qcol) - sg.begin()));
  }
  ProjectGroups(&binding);
  return binding;
}

void SmaGAggr::ProjectGroups(AggBinding* binding) {
  const Sma* sma = binding->sma;
  for (size_t g = binding->result_keys.size(); g < sma->num_groups(); ++g) {
    const std::vector<Value>& key = sma->group_key(g);
    std::vector<Value> projected;
    projected.reserve(binding->positions.size());
    for (size_t pos : binding->positions) projected.push_back(key[pos]);
    binding->result_keys.push_back(std::move(projected));
  }
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
  // Direct answers read each distinct SMA once (avg shares its sum's).
  op->sources_.push_back(&op->count_binding_);
  for (const AggBinding& binding : op->bindings_) {
    size_t s = 0;
    if (binding.sma != nullptr) {
      while (s < op->sources_.size() && op->sources_[s]->sma != binding.sma) {
        ++s;
      }
      if (s == op->sources_.size()) op->sources_.push_back(&binding);
    }
    op->agg_source_.push_back(s);
  }
  return op;
}

Result<std::unique_ptr<SmaGAggr>> SmaGAggr::MakeScan(
    storage::Table* table, expr::PredicatePtr pred,
    std::vector<size_t> group_by, std::vector<AggSpec> aggs,
    const sma::SmaSet* smas, size_t degree_of_parallelism) {
  SMADB_ASSIGN_OR_RETURN(storage::Schema schema,
                         AggResultSchema(table->schema(), group_by, aggs));
  SmaGAggrOptions options;
  options.degree_of_parallelism = degree_of_parallelism;
  return std::unique_ptr<SmaGAggr>(
      new SmaGAggr(table, std::move(pred), std::move(group_by),
                   std::move(aggs), smas, std::move(schema), options));
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
  std::vector<Grade> grades;  // the claimed morsel's
  // Per source (sources_): a cursor per SMA group file, and the flat
  // accumulators [source][SMA group] qualifying entries fold into,
  // starting at the SMA's identity (undefined for min/max).
  std::vector<std::vector<sma::SmaFile::Cursor>> cursors;
  std::vector<std::vector<int64_t>> acc;
  std::vector<int64_t> entries;  // one group file's entries for a morsel
  // The fetched buckets are read into `batch` and folded by `aggregator`;
  // sma_only mode fetches none and configures no batch.
  StretchReader reader;
  Batch batch;
  BatchAggregator aggregator;
  GroupTable groups;
  SmaScanStats stats;
  size_t charged = 0;  // group-state bytes already charged
  Worker(const SmaGAggr& op, const BucketSource& source)
      : reader(op.table_, source.snapshot(), op.ctx_),
        aggregator(&op.table_->schema(), &op.group_by_, &op.aggs_),
        groups(&op.aggs_) {}
};

Status SmaGAggr::AnswerQualifying(uint64_t first, uint64_t end,
                                  const Grade* grades, Worker* worker) const {
  const size_t n = static_cast<size_t>(end - first);
  int64_t* e = worker->entries.data();
  for (size_t s = 0; s < sources_.size(); ++s) {
    const AggFunc func = sources_[s]->sma->spec().func;
    std::vector<int64_t>& acc = worker->acc[s];
    for (size_t g = 0; g < acc.size(); ++g) {
      SMADB_RETURN_NOT_OK(worker->cursors[s][g].Read(first, end, e));
      int64_t a = acc[g];
      switch (func) {
        case AggFunc::kSum:
        case AggFunc::kCount:
          for (size_t k = 0; k < n; ++k) {
            if (grades[k] == Grade::kQualifies) a += e[k];
          }
          break;
        case AggFunc::kMin:
          for (size_t k = 0; k < n; ++k) {
            if (grades[k] == Grade::kQualifies) a = std::min(a, e[k]);
          }
          break;
        case AggFunc::kMax:
          for (size_t k = 0; k < n; ++k) {
            if (grades[k] == Grade::kQualifies) a = std::max(a, e[k]);
          }
          break;
      }
      acc[g] = a;
    }
  }
  return Status::OK();
}

void SmaGAggr::FlushAnswers(Worker* worker) const {
  // Group cardinalities first: they establish which groups exist.
  const std::vector<int64_t>& counts = worker->acc[0];
  for (size_t g = 0; g < counts.size(); ++g) {
    if (counts[g] > 0) {
      worker->groups.Get(count_binding_.result_keys[g])
          ->AddBucketCount(counts[g]);
    }
  }
  // Then each aggregate from its own SMA's accumulators.
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggBinding& binding = bindings_[i];
    if (binding.sma == nullptr) continue;  // count(*): handled above
    const std::vector<int64_t>& acc = worker->acc[agg_source_[i]];
    for (size_t g = 0; g < acc.size(); ++g) {
      if (binding.sma->IsUndefined(acc[g])) continue;  // empty min/max group
      // Zero sums are identity; skip the group-table touch.
      if (acc[g] == 0 && binding.sma->spec().func == AggFunc::kSum) continue;
      worker->groups.Get(binding.result_keys[g])->AddSummary(i, acc[g]);
    }
  }
}

Status SmaGAggr::ProcessMorsel(const BucketSource& source, uint64_t m,
                               Worker* worker) {
  const auto [first, end] = source.Morsel(m);
  // Morsel-granular cooperative checkpoint (every morsel, every worker).
  SMADB_RETURN_NOT_OK(CheckRuntime(name()));
  // GradeMorsel = one shared latch acquire for the morsel + boundary-bucket
  // demotion, so the census is identical at every dop. SMA_GAggr keeps the
  // latch for the direct answers: they read aggregate values straight out
  // of the SMA entries, so it must exclude a concurrent maintainer folding
  // a fresh append into those entries mid-read. (Grading only needs
  // superset soundness; direct answers need the exact snapshot value — the
  // boundary bucket was demoted to ambivalent for that reason.)
  Grade* grades = worker->grades.data();
  storage::BucketLatchTable::SharedGuard latch;
  SMADB_RETURN_NOT_OK(source.GradeMorsel(worker->grader.get(), first, end,
                                         grades,
                                         answers() ? &latch : nullptr));
  uint64_t q_first = end;  // span of the qualifying buckets
  uint64_t q_end = first;
  uint64_t ambivalent = 0;
  for (uint64_t b = first; b < end; ++b) {
    const Grade g = EffectiveGrade(grades[b - first], b);
    grades[b - first] = g;
    worker->stats.Tally(g);
    if (g == Grade::kQualifies) {
      q_first = std::min(q_first, b);
      q_end = b + 1;
    }
    ambivalent += g == Grade::kAmbivalent;
  }
  if (answers() && q_first < q_end) {
    SMADB_RETURN_NOT_OK(
        AnswerQualifying(q_first, q_end, grades + (q_first - first), worker));
  }
  latch.Release();
  // A disqualifying bucket: "do nothing".
  if (options_.sma_only) {
    // Degraded rung: leave ambivalent buckets uninspected; the caller marks
    // the answer partial via buckets_skipped().
    buckets_skipped_.fetch_add(ambivalent, std::memory_order_relaxed);
    return Status::OK();
  }
  // The reader clamps to the execution's snapshot and latches the groups it
  // reads itself.
  SMADB_RETURN_NOT_OK(worker->reader.Start(
      first, end, grades, /*fetch_qualifying=*/!answers(), pred_.get()));
  while (true) {
    SMADB_ASSIGN_OR_RETURN(bool has, worker->reader.Next(&worker->batch));
    if (!has) break;
    worker->aggregator.AddBatch(worker->batch);
  }
  // Partial groups are charged as they grow, not only at the merge.
  return ChargeGrowth(worker->aggregator.approx_bytes(), &worker->charged,
                      "GroupTable");
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
    prof_->SetDetail(util::Format("groups=%zu dop=%zu%s",
                                  results_.rows.size(),
                                  degree_of_parallelism(),
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
  const size_t dop = degree_of_parallelism();
  // Groups a maintainer created before the source captured its snapshot
  // may hold entries in buckets the snapshot covers; later ones only in
  // the (demoted) boundary bucket or beyond it.
  if (answers()) ProjectGroups(&count_binding_);
  for (AggBinding& binding : bindings_) {
    if (binding.sma != nullptr) ProjectGroups(&binding);
  }

  // Per-worker grader, cursors, accumulators, reader, census and group
  // table; exact merge afterwards. Readers clamp to the source's
  // consistent append prefix; qualifying buckets answer from SMA entries
  // under the morsel's shared latch. SMA-only mode fetches no bucket, so
  // it has no batch.
  const uint64_t per = BucketsPerMorsel(table_->bucket_pages());
  std::vector<Worker> workers;
  workers.reserve(dop);
  for (size_t w = 0; w < dop; ++w) {
    workers.emplace_back(*this, source);
    Worker& worker = workers.back();
    worker.grader = source.NewGrader();
    worker.grades.resize(per);
    worker.entries.resize(per);
    for (const AggBinding* src : sources_) {
      std::vector<sma::SmaFile::Cursor> cursors;
      for (size_t g = 0; g < src->result_keys.size(); ++g) {
        cursors.push_back(src->sma->group_file(g)->NewCursor());
      }
      worker.cursors.push_back(std::move(cursors));
      worker.acc.emplace_back(src->result_keys.size(),
                              src->sma->IdentityEntry());
    }
    if (options_.sma_only) continue;
    std::vector<bool> mask = worker.aggregator.RequiredColumns();
    pred_->AddReferencedColumns(&mask);
    SMADB_RETURN_NOT_OK(
        ConfigureBatch(&worker.batch, &table_->schema(), std::move(mask)));
  }
  // The cancel token flows into the claim loop: once it trips, no further
  // morsel is scheduled and the pool drains before we touch worker state.
  const util::CancelToken* cancel =
      ctx_ != nullptr ? ctx_->cancel() : nullptr;
  const Status par = util::ThreadPool::Shared()->ParallelFor(
      0, source.num_morsels(), dop,
      [&](size_t w, uint64_t m) -> Status {
        return ProcessMorsel(source, m, &workers[w]);
      },
      cancel);
  // Per-worker censuses merge into stats_ exactly once, success or
  // failure — the pool has drained, so worker state is quiescent — so a
  // degraded-ladder rerun never re-counts a failed run's buckets.
  for (Worker& worker : workers) {
    stats_.Merge(worker.stats);
    if (prof_ != nullptr) prof_->AddPagesRead(worker.reader.pages_opened());
  }
  SMADB_RETURN_NOT_OK(par);
  GroupTable groups(&aggs_);
  for (Worker& worker : workers) {
    if (answers()) FlushAnswers(&worker);
    worker.aggregator.FlushInto(&worker.groups);
    SMADB_RETURN_NOT_OK(ChargeGrowth(worker.groups.approx_bytes(),
                                     &worker.charged, "GroupTable"));
    const size_t before = groups.approx_bytes();
    groups.MergeFrom(worker.groups);
    // Merge-phase growth is charged under its own component so budget
    // failures name the phase that tripped them.
    if (groups.approx_bytes() > before) {
      SMADB_RETURN_NOT_OK(ChargeMemory(groups.approx_bytes() - before,
                                       "GroupTable.merge"));
    }
  }
  // The merged table is the group state's high-water mark: `peak=`.
  if (prof_ != nullptr) prof_->NotePeakBytes(groups.approx_bytes());

  // Phase 3 (average finalization) happens inside Emit/Finalize.
  return groups.Emit(&schema_, &results_.rows);
}

}  // namespace smadb::exec
