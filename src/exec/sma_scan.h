// SMA_Scan (paper §3.2, Fig. 6): a selection scan that uses SMAs to skip
// disqualifying buckets entirely, return qualifying buckets' tuples without
// per-tuple predicate evaluation, and fall back to predicate evaluation
// only inside ambivalent buckets. Without SMAs every bucket grades
// ambivalent, which is the plain sequential scan (TableScan) — the
// paper's baseline ("a sequential scan is the only possibility to
// 'efficiently' evaluate this query").
//
// Fig. 6's getBucket() runs a morsel at a time: the scan grades a morsel's
// buckets through BucketSource::GradeMorsel and reads each stretch of
// consecutive fetched buckets through one StretchReader range, a run of
// pages at a time, into the consumer's batch (exec/bucket_source.h).

#ifndef SMADB_EXEC_SMA_SCAN_H_
#define SMADB_EXEC_SMA_SCAN_H_

#include <memory>
#include <optional>
#include <vector>

#include "exec/bucket_source.h"
#include "exec/operator.h"
#include "expr/predicate.h"
#include "sma/grade.h"
#include "storage/table.h"

namespace smadb::exec {

class SmaScan final : public Operator {
 public:
  /// Scans `table`, returning tuples satisfying `pred` (Predicate::True()
  /// for all). `smas` supplies the selection SMAs; atoms without SMA
  /// support simply grade ambivalent (still correct, just slower). Null
  /// `smas` reads every bucket: the plain sequential scan.
  SmaScan(storage::Table* table, expr::PredicatePtr pred,
          const sma::SmaSet* smas)
      : table_(table), pred_(std::move(pred)), smas_(smas) {}

  const storage::Schema& output_schema() const override {
    return table_->schema();
  }

  /// Captures a fresh snapshot; the scan restarts from the first bucket.
  util::Status Init() override;

  /// Batches never span stretches, so a stretch's grades map straight onto
  /// the selection vector: a stretch of qualifying buckets keeps the full
  /// (dense) selection without evaluating the predicate at all; any other
  /// gets one vectorized EvalBatch pass.
  util::Result<bool> NextBatch(Batch* out) override;

  const SmaScanStats& stats() const { return stats_; }

  void BindContext(util::QueryContext* ctx) override {
    Operator::BindContext(ctx);
    BindProfile(smas_ != nullptr ? "SmaScan" : "TableScan");
  }

 private:
  /// Feeds the reader's page-fetch delta to the profile node (idempotent).
  void FeedPages() {
    if (prof_ == nullptr) return;
    prof_->AddPagesRead(reader_->pages_opened() - pages_fed_);
    pages_fed_ = reader_->pages_opened();
  }

  /// Fig. 6's getBucket(), a morsel at a time: grades the next morsel and
  /// starts the reader on its qualifying and ambivalent buckets.
  util::Status NextMorsel();

  storage::Table* table_;
  expr::PredicatePtr pred_;
  const sma::SmaSet* smas_;
  // This execution's walk, set up by Init.
  std::optional<BucketSource> source_;
  std::unique_ptr<sma::BucketGrader> grader_;
  std::optional<StretchReader> reader_;
  std::vector<sma::Grade> grades_;  // the current morsel's
  uint64_t next_morsel_ = 0;
  SmaScanStats stats_;
  uint64_t pages_fed_ = 0;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_SMA_SCAN_H_
