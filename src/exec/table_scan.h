// Plain sequential scan with per-tuple predicate evaluation — the paper's
// baseline ("a sequential scan is the only possibility to 'efficiently'
// evaluate this query").

#ifndef SMADB_EXEC_TABLE_SCAN_H_
#define SMADB_EXEC_TABLE_SCAN_H_

#include "exec/bucket_source.h"
#include "exec/operator.h"
#include "expr/predicate.h"
#include "storage/table.h"

namespace smadb::exec {

class TableScan final : public Operator {
 public:
  /// Scans `table`, returning tuples satisfying `pred` (Predicate::True()
  /// for all).
  TableScan(storage::Table* table, expr::PredicatePtr pred)
      : table_(table), pred_(std::move(pred)), reader_(table) {}

  const storage::Schema& output_schema() const override {
    return table_->schema();
  }

  util::Status Init() override;

  /// Bulk column decode, then one vectorized predicate pass refining the
  /// selection vector.
  util::Result<bool> NextBatch(Batch* out) override;

  void AddRequiredBatchColumns(std::vector<bool>* mask) const override {
    pred_->AddReferencedColumns(mask);
  }

  void BindContext(util::QueryContext* ctx) override {
    Operator::BindContext(ctx);
    BindProfile("TableScan");
  }

 private:
  /// Feeds the reader's page-fetch delta to the profile node (idempotent:
  /// only new fetches since the last call are added).
  void FeedPages() {
    if (prof_ == nullptr) return;
    prof_->AddPagesRead(reader_.pages_opened() - pages_fed_);
    pages_fed_ = reader_.pages_opened();
  }

  storage::Table* table_;
  expr::PredicatePtr pred_;
  BucketReader reader_;
  uint64_t pages_fed_ = 0;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_TABLE_SCAN_H_
