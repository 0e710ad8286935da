#include "exec/bucket_source.h"

#include <algorithm>

namespace smadb::exec {

using util::Result;
using util::Status;

BucketSource::BucketSource(storage::Table* table, expr::PredicatePtr pred,
                           const sma::SmaSet* smas)
    : table_(table), pred_(std::move(pred)), smas_(smas) {
  Reset();
}

void BucketSource::Reset() {
  if (smas_ != nullptr) {
    grader_ = sma::BucketGrader::Create(pred_, smas_);
    has_sma_support_ = grader_->has_sma_support();
  } else {
    grader_.reset();
    has_sma_support_ = false;
  }
  // A re-executed operator sees a fresh consistent prefix.
  snapshot_ = table_->CaptureSnapshot();
  serial_next_ = 0;
}

Result<sma::Grade> BucketSource::GradeLatched(sma::BucketGrader* grader,
                                              uint64_t bucket) const {
  if (grader == nullptr) {
    return ApplySnapshot(bucket, sma::Grade::kAmbivalent);
  }
  auto latch = table_->latches()->LockShared(bucket);
  SMADB_ASSIGN_OR_RETURN(sma::Grade g, grader->GradeBucket(bucket));
  latch.Release();
  return ApplySnapshot(bucket, g);
}

Result<bool> BucketSource::NextGraded(BucketUnit* out) {
  if (serial_next_ >= num_buckets()) return false;
  out->bucket = serial_next_++;
  SMADB_ASSIGN_OR_RETURN(out->grade, GradeLatched(grader_.get(), out->bucket));
  return true;
}

Status BucketReader::Open(uint32_t first_page, uint32_t end_page) {
  Close();
  if (has_snapshot_) end_page = std::min(end_page, snapshot_.pages);
  page_ = first_page;
  page_end_ = end_page;
  slot_ = 0;
  page_count_ = 0;
  open_ = first_page < end_page;
  if (open_) SMADB_RETURN_NOT_OK(PinPage());
  return Status::OK();
}

Status BucketReader::PinPage() {
  const uint64_t bucket = table_->BucketOfPage(page_);
  // Coupling: release before acquiring so at most one latch is held (the
  // old and new bucket can share a shard, and shared_mutex is not
  // reentrant when a writer is queued). A bucket wider than a run keeps its
  // latch across the run change.
  if (latched_bucket_ != bucket) latch_.Release();
  if (!run_.Contains(page_)) {
    run_.Release();
    SMADB_ASSIGN_OR_RETURN(
        run_, table_->PinPages(page_, page_end_ - page_));
  }
  if (!latch_.held()) {
    latch_ = table_->latches()->LockShared(bucket);
    latched_bucket_ = bucket;
  }
  ++pages_opened_;
  uint16_t n = storage::Table::PageTupleCount(*run_.page(page_));
  if (has_snapshot_) n = snapshot_.VisibleSlots(page_, n);
  page_count_ = n;
  return Status::OK();
}

Result<bool> BucketReader::NextBatch(storage::ColumnBatch* cols) {
  const size_t before = cols->num_rows();
  while (open_ && !cols->full()) {
    if (slot_ >= page_count_) {
      if (page_ + 1 >= page_end_) {
        open_ = false;
        Close();
        break;
      }
      ++page_;
      slot_ = 0;
      SMADB_RETURN_NOT_OK(PinPage());
      continue;
    }
    slot_ =
        cols->AppendFromPage(*table_, *run_.page(page_), slot_, page_count_);
  }
  return cols->num_rows() > before;
}

}  // namespace smadb::exec
