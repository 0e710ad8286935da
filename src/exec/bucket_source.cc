#include "exec/bucket_source.h"

#include <algorithm>

#include "util/dcheck.h"

namespace smadb::exec {

using util::Result;
using util::Status;

Status BucketSource::GradeMorsel(
    sma::BucketGrader* grader, uint64_t first, uint64_t end, sma::Grade* out,
    storage::BucketLatchTable::SharedGuard* hold) const {
  storage::BucketLatchTable* latches = table_->latches();
  SMADB_DCHECK(end <= first ||
               latches->GroupOf(first) == latches->GroupOf(end - 1));
  const size_t n = static_cast<size_t>(end - first);
  if (grader == nullptr) {
    std::fill(out, out + n, sma::Grade::kAmbivalent);
    return Status::OK();
  }
  auto latch = latches->LockShared(first);
  SMADB_RETURN_NOT_OK(grader->GradeRange(first, end, out));
  if (hold != nullptr) {
    *hold = std::move(latch);
  } else {
    latch.Release();
  }
  if (snapshot_.demote_boundary && first <= snapshot_.boundary_bucket &&
      snapshot_.boundary_bucket < end) {
    out[snapshot_.boundary_bucket - first] = sma::Grade::kAmbivalent;
  }
  return Status::OK();
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

Status BucketReader::PinAhead(uint64_t first_bucket, uint64_t end_bucket) {
  const uint32_t first =
      table_->BucketPageRange(static_cast<uint32_t>(first_bucket)).first;
  uint32_t end =
      table_->BucketPageRange(static_cast<uint32_t>(end_bucket - 1)).second;
  if (has_snapshot_) end = std::min(end, snapshot_.pages);
  if (first >= end) return Status::OK();
  SMADB_ASSIGN_OR_RETURN(storage::PageRun run,
                         table_->PinPages(first, end - first));
  ahead_.push_back(std::move(run));
  return Status::OK();
}

Status BucketReader::PinPage() {
  const uint64_t bucket = table_->BucketOfPage(page_);
  const uint64_t group = table_->latches()->GroupOf(bucket);
  // Coupling: release before acquiring so at most one latch is held (the
  // old and new group can share a shard, and shared_mutex is not
  // reentrant when a writer is queued). A group keeps its latch across
  // the run change of a bucket wider than a run.
  if (latched_group_ != group) latch_.Release();
  if (!run_.Contains(page_)) {
    run_.Release();
    // A run PinAhead pinned for this page is adopted, not pinned again.
    const auto ahead = std::find_if(
        ahead_.begin(), ahead_.end(),
        [&](const storage::PageRun& r) { return r.Contains(page_); });
    if (ahead != ahead_.end()) {
      run_ = std::move(*ahead);
      ahead_.erase(ahead);
    } else {
      SMADB_ASSIGN_OR_RETURN(run_,
                             table_->PinPages(page_, page_end_ - page_));
    }
  }
  if (!latch_.held()) {
    latch_ = table_->latches()->LockShared(bucket);
    latched_group_ = group;
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

Status StretchReader::Start(uint64_t first, uint64_t end,
                            const sma::Grade* grades, bool fetch_qualifying,
                            const expr::Predicate* pred) {
  const auto fetched = [&](uint64_t b) {
    const sma::Grade g = grades[b - first];
    return g == sma::Grade::kAmbivalent ||
           (fetch_qualifying && g == sma::Grade::kQualifies);
  };
  stretches_.clear();
  next_ = 0;
  open_ = false;
  for (uint64_t b = first; b < end;) {
    if (!fetched(b)) {
      ++b;
      continue;
    }
    bool all_qualify = true;
    uint64_t stop = b;
    for (; stop < end && fetched(stop); ++stop) {
      all_qualify &= grades[stop - first] == sma::Grade::kQualifies;
    }
    stretches_.push_back({b, stop, all_qualify ? nullptr : pred});
    b = stop;
  }
  if (stretches_.size() > 1) {
    for (const Stretch& s : stretches_) {
      SMADB_RETURN_NOT_OK(reader_.PinAhead(s.first, s.end));
    }
  }
  return Status::OK();
}

Result<bool> StretchReader::Next(Batch* out) {
  while (true) {
    if (!open_) {
      if (next_ == stretches_.size()) {
        reader_.ReleaseAhead();
        return false;
      }
      const Stretch& s = stretches_[next_++];
      SMADB_RETURN_NOT_OK(reader_.OpenBuckets(s.first, s.end));
      pred_ = s.pred;
      open_ = true;
    }
    SMADB_RETURN_NOT_OK(util::QueryContext::Check(ctx_, "StretchReader"));
    out->Clear();
    SMADB_ASSIGN_OR_RETURN(bool has, reader_.NextBatch(&out->cols));
    if (!has) {
      open_ = false;
      continue;
    }
    out->SelectAll();
    if (pred_ != nullptr) pred_->EvalBatch(out->cols, &out->sel);
    return true;
  }
}

}  // namespace smadb::exec
