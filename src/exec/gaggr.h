// GAggr: grouping with aggregation over any child operator (Dayal's GAggr
// [4]) — hash grouping, pipeline breaker.

#ifndef SMADB_EXEC_GAGGR_H_
#define SMADB_EXEC_GAGGR_H_

#include <memory>
#include <vector>

#include "exec/aggregate.h"
#include "exec/operator.h"

namespace smadb::exec {

class GAggr final : public Operator {
 public:
  /// Groups the child's output on `group_by` (child-schema ordinals) and
  /// computes `aggs` with the fused BatchAggregator kernels, pulling child
  /// batches projected to the group-by, aggregate and child-required
  /// columns. Construction validates via Make().
  static util::Result<std::unique_ptr<GAggr>> Make(
      std::unique_ptr<Operator> child, std::vector<size_t> group_by,
      std::vector<AggSpec> aggs);

  const storage::Schema& output_schema() const override { return schema_; }

  /// Pipeline breaker: consumes the entire child here.
  util::Status Init() override;

  util::Result<bool> NextBatch(Batch* out) override {
    return results_.Emit(out, prof_);
  }

  void BindContext(util::QueryContext* ctx) override {
    Operator::BindContext(ctx);
    auto scope = BindProfile("GAggr");
    child_->BindContext(ctx);
  }

  size_t num_groups() const { return results_.rows.size(); }

 private:
  GAggr(std::unique_ptr<Operator> child, std::vector<size_t> group_by,
        std::vector<AggSpec> aggs, storage::Schema schema)
      : child_(std::move(child)),
        group_by_(std::move(group_by)),
        aggs_(std::move(aggs)),
        schema_(std::move(schema)) {}

  std::unique_ptr<Operator> child_;
  std::vector<size_t> group_by_;
  std::vector<AggSpec> aggs_;
  storage::Schema schema_;
  RowEmitter results_;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_GAGGR_H_
