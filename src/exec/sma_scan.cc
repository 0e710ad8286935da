#include "exec/sma_scan.h"

namespace smadb::exec {

using util::Result;
using util::Status;

Status SmaScan::Init() {
  obs::OpTimer timer(prof_);
  // A re-executed scan sees a fresh consistent prefix.
  source_.emplace(table_, pred_, smas_);
  grader_ = source_->NewGrader();
  reader_.emplace(table_, source_->snapshot(), ctx_);
  grades_.resize(BucketsPerMorsel(table_->bucket_pages()));
  next_morsel_ = 0;
  stats_ = SmaScanStats();
  pages_fed_ = 0;
  return Status::OK();
}

Status SmaScan::NextMorsel() {
  // "do { advance currBucketNo; advance all smas; currGrade = grade(...); }
  //  while (currGrade != qualifies and currGrade != ambivalent)"
  // Morsel-granular cooperative checkpoint: covers the skip over
  // disqualifying buckets too.
  SMADB_RETURN_NOT_OK(CheckRuntime("SmaScan"));
  const auto [first, end] = source_->Morsel(next_morsel_++);
  SMADB_RETURN_NOT_OK(
      source_->GradeMorsel(grader_.get(), first, end, grades_.data()));
  SmaScanStats morsel;
  for (uint64_t b = first; b < end; ++b) morsel.Tally(grades_[b - first]);
  stats_.Merge(morsel);
  if (prof_ != nullptr) {
    prof_->AddBuckets(morsel.qualifying_buckets, morsel.disqualifying_buckets,
                      morsel.ambivalent_buckets);
  }
  // "read bucket currBucketNo" — a stretch of fetched buckets at a time.
  return reader_->Start(first, end, grades_.data(), /*fetch_qualifying=*/true,
                        pred_.get());
}

Result<bool> SmaScan::NextBatch(Batch* out) {
  obs::OpTimer timer(prof_);
  while (true) {
    SMADB_ASSIGN_OR_RETURN(bool has, reader_->Next(out));
    if (has) {
      if (prof_ != nullptr) {
        prof_->AddBatches(1);
        prof_->AddRows(out->sel.count());
        FeedPages();
      }
      return true;
    }
    if (next_morsel_ == source_->num_morsels()) {
      FeedPages();
      return false;
    }
    SMADB_RETURN_NOT_OK(NextMorsel());
  }
}

}  // namespace smadb::exec
