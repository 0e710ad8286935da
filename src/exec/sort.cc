#include "exec/sort.h"

#include <algorithm>

#include "util/string_util.h"

namespace smadb::exec {

using storage::TupleBuffer;
using storage::TupleRef;
using util::Result;
using util::Status;

Result<std::unique_ptr<Sort>> Sort::Make(std::unique_ptr<Operator> child,
                                         std::vector<SortKey> keys,
                                         size_t limit) {
  if (keys.empty()) {
    return Status::InvalidArgument("sort needs at least one key");
  }
  for (const SortKey& k : keys) {
    if (k.column >= child->output_schema().num_fields()) {
      return Status::OutOfRange(
          util::Format("sort column %zu out of range", k.column));
    }
  }
  return std::unique_ptr<Sort>(
      new Sort(std::move(child), std::move(keys), limit));
}

Status Sort::Init() {
  obs::OpTimer timer(prof_);
  results_.Reset();
  SMADB_RETURN_NOT_OK(child_->Init());
  const storage::Schema& schema = child_->output_schema();
  std::vector<TupleBuffer>& rows = results_.rows;
  Batch batch;
  SMADB_RETURN_NOT_OK(ConfigureBatch(&batch, &schema));
  while (true) {
    // The sort buffer materializes the whole input — check the governor
    // and charge the buffered rows against the budget batch by batch.
    SMADB_RETURN_NOT_OK(CheckRuntime("Sort"));
    SMADB_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&batch));
    if (!has) break;
    SMADB_RETURN_NOT_OK(
        ChargeMemory(batch.sel.count() * schema.tuple_size(), "Sort"));
    for (size_t k = 0; k < batch.sel.count(); ++k) {
      rows.emplace_back(&schema);
      batch.cols.MaterializeRow(batch.sel.row(k), &rows.back());
    }
  }
  std::stable_sort(
      rows.begin(), rows.end(),
      [&](const TupleBuffer& a, const TupleBuffer& b) {
        const TupleRef ra = a.AsRef();
        const TupleRef rb = b.AsRef();
        for (const SortKey& k : keys_) {
          const auto cmp = ra.GetValue(k.column).Compare(
              rb.GetValue(k.column));
          if (cmp == std::strong_ordering::equal) continue;
          const bool less = cmp == std::strong_ordering::less;
          return k.descending ? !less : less;
        }
        return false;
      });
  const size_t buffered = rows.size();
  if (limit_ > 0 && rows.size() > limit_) {
    rows.erase(rows.begin() + static_cast<ptrdiff_t>(limit_), rows.end());
  }
  if (prof_ != nullptr) {
    prof_->NotePeakBytes(buffered * schema.tuple_size());
    prof_->SetDetail(util::Format("buffered=%zu limit=%zu", buffered, limit_));
  }
  return Status::OK();
}

}  // namespace smadb::exec
