// SMA_Scan (paper §3.2, Fig. 6): a selection scan that uses SMAs to skip
// disqualifying buckets entirely, return qualifying buckets' tuples without
// per-tuple predicate evaluation, and fall back to predicate evaluation
// only inside ambivalent buckets.
//
// The bucket walk itself (grading, page range, slot iteration) lives in
// exec/bucket_source.h, shared with TableScan and the parallel aggregates.

#ifndef SMADB_EXEC_SMA_SCAN_H_
#define SMADB_EXEC_SMA_SCAN_H_

#include "exec/bucket_source.h"
#include "exec/operator.h"
#include "expr/predicate.h"
#include "sma/grade.h"
#include "storage/table.h"

namespace smadb::exec {

class SmaScan final : public Operator {
 public:
  /// `smas` supplies the selection SMAs; atoms without SMA support simply
  /// grade ambivalent (still correct, just slower).
  SmaScan(storage::Table* table, expr::PredicatePtr pred,
          const sma::SmaSet* smas)
      : source_(table, std::move(pred), smas), reader_(table) {}

  const storage::Schema& output_schema() const override {
    return source_.table()->schema();
  }

  util::Status Init() override;

  /// Batches never span buckets, so the bucket's grade
  /// maps straight onto the selection vector: qualifying buckets keep the
  /// full (dense) selection without evaluating the predicate at all;
  /// ambivalent buckets get one vectorized EvalBatch pass.
  util::Result<bool> NextBatch(Batch* out) override;

  const SmaScanStats& stats() const { return stats_; }

  void BindContext(util::QueryContext* ctx) override {
    Operator::BindContext(ctx);
    BindProfile("SmaScan");
  }

 private:
  /// Feeds the reader's page-fetch delta to the profile node (idempotent).
  void FeedPages() {
    if (prof_ == nullptr) return;
    prof_->AddPagesRead(reader_.pages_opened() - pages_fed_);
    pages_fed_ = reader_.pages_opened();
  }

  /// Fig. 6's getBucket(): advances to the next qualifying or ambivalent
  /// bucket, fetching its first page. Sets done_ when no buckets remain.
  util::Status GetBucket();

  BucketSource source_;
  BucketReader reader_;
  sma::Grade curr_grade_ = sma::Grade::kAmbivalent;
  bool done_ = false;
  SmaScanStats stats_;
  uint64_t pages_fed_ = 0;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_SMA_SCAN_H_
