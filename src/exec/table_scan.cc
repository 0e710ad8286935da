#include "exec/table_scan.h"

namespace smadb::exec {

using util::Result;
using util::Status;

Status TableScan::Init() {
  obs::OpTimer timer(prof_);
  // One contiguous page range: the snapshot's consistent append prefix
  // (concurrent appends past it stay invisible to this scan).
  const storage::TableSnapshot snap = table_->CaptureSnapshot();
  reader_.set_snapshot(snap);
  return reader_.Open(0, snap.pages);
}

Result<bool> TableScan::NextBatch(Batch* out) {
  obs::OpTimer timer(prof_);
  SMADB_RETURN_NOT_OK(CheckRuntime("TableScan"));
  out->Clear();
  SMADB_ASSIGN_OR_RETURN(bool has, reader_.NextBatch(&out->cols));
  if (!has) {
    FeedPages();
    return false;
  }
  out->SelectAll();
  pred_->EvalBatch(out->cols, &out->sel);
  if (prof_ != nullptr) {
    prof_->AddBatches(1);
    prof_->AddRows(out->sel.count());
    FeedPages();
  }
  return true;
}

}  // namespace smadb::exec
