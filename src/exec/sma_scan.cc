#include "exec/sma_scan.h"

namespace smadb::exec {

using sma::Grade;
using util::Result;
using util::Status;

Status SmaScan::Init() {
  obs::OpTimer timer(prof_);
  source_.Reset();
  reader_.Close();
  reader_.set_snapshot(source_.snapshot());
  done_ = false;
  stats_ = SmaScanStats();
  return GetBucket();
}

Status SmaScan::GetBucket() {
  // "do { advance currBucketNo; advance all smas; currGrade = grade(...); }
  //  while (currGrade != qualifies and currGrade != ambivalent)"
  BucketUnit unit;
  while (true) {
    // Bucket-granular cooperative checkpoint: covers both the skip loop
    // over disqualifying buckets and every bucket actually fetched.
    SMADB_RETURN_NOT_OK(CheckRuntime("SmaScan"));
    SMADB_ASSIGN_OR_RETURN(bool has, source_.NextGraded(&unit));
    if (!has) {
      done_ = true;
      return Status::OK();
    }
    stats_.Tally(unit.grade);
    if (prof_ != nullptr) {
      // One call per bucket, mirroring stats_ — the grade ground truth the
      // explain-analyze census tests compare against.
      prof_->AddBuckets(unit.grade == Grade::kQualifies,
                        unit.grade == Grade::kDisqualifies,
                        unit.grade == Grade::kAmbivalent);
    }
    if (unit.grade != Grade::kDisqualifies) break;  // skip without touching
  }
  curr_grade_ = unit.grade;
  // "read bucket currBucketNo" — position on its first page.
  return reader_.OpenBucket(unit.bucket);
}

Result<bool> SmaScan::NextBatch(Batch* out) {
  obs::OpTimer timer(prof_);
  while (!done_) {
    out->Clear();
    // One bucket per batch refill: the reader is Open()ed on exactly one
    // bucket's page range, so a batch never mixes grades.
    SMADB_ASSIGN_OR_RETURN(bool has, reader_.NextBatch(&out->cols));
    if (!has) {
      SMADB_RETURN_NOT_OK(GetBucket());
      continue;
    }
    out->SelectAll();
    // Grade -> selection: qualifying keeps the dense all-rows selection
    // untouched (§3.2's "no predicate evaluation"); ambivalent refines it.
    if (curr_grade_ != Grade::kQualifies) {
      source_.pred()->EvalBatch(out->cols, &out->sel);
    }
    if (prof_ != nullptr) {
      prof_->AddBatches(1);
      prof_->AddRows(out->sel.count());
      FeedPages();
    }
    return true;
  }
  FeedPages();
  return false;
}

}  // namespace smadb::exec
