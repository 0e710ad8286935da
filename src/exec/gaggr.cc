#include "exec/gaggr.h"

#include "exec/batch_aggregator.h"
#include "util/string_util.h"

namespace smadb::exec {

using util::Result;
using util::Status;

Result<std::unique_ptr<GAggr>> GAggr::Make(std::unique_ptr<Operator> child,
                                           std::vector<size_t> group_by,
                                           std::vector<AggSpec> aggs) {
  SMADB_ASSIGN_OR_RETURN(
      storage::Schema schema,
      AggResultSchema(child->output_schema(), group_by, aggs));
  return std::unique_ptr<GAggr>(new GAggr(std::move(child),
                                          std::move(group_by),
                                          std::move(aggs),
                                          std::move(schema)));
}

Status GAggr::Init() {
  obs::OpTimer timer(prof_);
  results_.Reset();
  SMADB_RETURN_NOT_OK(child_->Init());

  // Project only what grouping, aggregation, and the child's own
  // predicates read, then run fused kernels per batch.
  BatchAggregator aggregator(&child_->output_schema(), &group_by_, &aggs_);
  std::vector<bool> mask = aggregator.RequiredColumns();
  child_->AddRequiredBatchColumns(&mask);
  Batch batch;
  SMADB_RETURN_NOT_OK(
      ConfigureBatch(&batch, &child_->output_schema(), std::move(mask)));
  while (true) {
    SMADB_RETURN_NOT_OK(CheckRuntime("GAggr"));
    SMADB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&batch));
    if (!has) break;
    aggregator.AddBatch(batch);
  }
  GroupTable groups(&aggs_);
  aggregator.FlushInto(&groups);
  SMADB_RETURN_NOT_OK(ChargeMemory(groups.approx_bytes(), "GroupTable"));
  SMADB_RETURN_NOT_OK(groups.Emit(&schema_, &results_.rows));
  if (prof_ != nullptr) {
    prof_->NotePeakBytes(groups.approx_bytes());
    prof_->SetDetail(util::Format("groups=%zu", results_.rows.size()));
  }
  return Status::OK();
}

}  // namespace smadb::exec
