#include "sma/maintenance.h"

#include <string>
#include <vector>

namespace smadb::sma {

using storage::Rid;
using storage::TupleBuffer;
using util::Result;
using util::Status;
using util::StatusCode;
using util::Value;

namespace {

// Runs one table mutation `write`, then `fold`s it into every trusted SMA.
// The SMAs are stamped with the table's post-mutation epoch BEFORE `write`
// bumps it, so a planner checking staleness latch-free (Sma::stale) never
// sees one transiently stale and demotes a concurrent read to a full scan;
// graders of the bucket wait on the caller's exclusive latch for the folds.
// Stamps go back for the SMAs the mutation never reached: all of them when
// `write` fails, the unfolded rest (stale until Rebuild()) when a fold fails
// and distrusts its SMA.
template <typename Write, typename Fold>
Status Mutate(storage::Table* table, SmaSet* set, Write write, Fold fold,
              const char* what) {
  const std::vector<Sma*> smas = set->mutable_all();
  const uint64_t after = table->epoch() + 1;
  std::vector<uint64_t> before;
  before.reserve(smas.size());
  for (Sma* sma : smas) {
    before.push_back(sma->built_epoch());
    if (sma->trusted()) sma->MarkTrusted(after);
  }
  const auto put_back = [&](size_t from) {
    for (size_t i = from; i < smas.size(); ++i) {
      if (smas[i]->trusted()) smas[i]->MarkTrusted(before[i]);
    }
  };
  if (Status st = write(); !st.ok()) {
    put_back(0);
    return st;
  }
  for (size_t i = 0; i < smas.size(); ++i) {
    if (!smas[i]->trusted()) continue;  // repaired wholesale by Rebuild()
    if (Status st = fold(smas[i]); !st.ok()) {
      smas[i]->MarkDistrusted(std::string(what) + " failed: " + st.ToString());
      put_back(i + 1);
      return st;
    }
  }
  return Status::OK();
}

}  // namespace

Status SmaMaintainer::Insert(const TupleBuffer& tuple, Rid* rid_out) {
  // Latch the target bucket exclusively BEFORE the page write: the tuple
  // bytes, the SMA folds, and the trust stamps form one atomic unit with
  // respect to readers of that bucket. The target is stable because appends
  // are single-writer (Database::write_mu_).
  const uint64_t bucket = table_->AppendTargetBucket();
  auto latch = table_->latches()->LockExclusive(bucket);
  const storage::TupleRef ref = tuple.AsRef();
  return Mutate(
      table_, smas_, [&] { return table_->Append(tuple, rid_out); },
      [&](Sma* sma) -> Status {
        SMADB_RETURN_NOT_OK(sma->EnsureBuckets(bucket + 1));
        SMADB_ASSIGN_OR_RETURN(size_t g,
                               sma->GetOrCreateGroup(sma->GroupKeyOf(ref)));
        SmaFile* file = sma->group_file(g);
        SMADB_ASSIGN_OR_RETURN(int64_t entry, file->Get(bucket));
        return file->Set(bucket, sma->Merge(entry, sma->ArgOf(ref)));
      },
      "maintenance fold");
}

Status SmaMaintainer::Delete(Rid rid) {
  const uint64_t bucket = table_->BucketOfPage(rid.page_no);
  auto latch = table_->latches()->LockExclusive(bucket);
  return Mutate(
      table_, smas_, [&] { return table_->DeleteTuple(rid); },
      [&](Sma* sma) -> Status {
        SMADB_RETURN_NOT_OK(sma->EnsureBuckets(bucket + 1));
        return RecomputeBucket(table_, sma, bucket);
      },
      "maintenance recompute");
}

Status SmaMaintainer::UpdateColumn(Rid rid, size_t col, const Value& v) {
  const uint64_t bucket = table_->BucketOfPage(rid.page_no);
  auto latch = table_->latches()->LockExclusive(bucket);
  return Mutate(
      table_, smas_, [&] { return table_->UpdateColumn(rid, col, v); },
      [&](Sma* sma) -> Status {
        const SmaSpec& spec = sma->spec();
        bool affected =
            spec.arg != nullptr && spec.arg->ReferencesColumn(col);
        for (size_t gcol : spec.group_by) affected |= gcol == col;
        // Unaffected SMAs stay valid across this mutation; the stamp alone
        // keeps them usable.
        if (!affected) return Status::OK();
        SMADB_RETURN_NOT_OK(sma->EnsureBuckets(bucket + 1));
        return RecomputeBucket(table_, sma, bucket);
      },
      "maintenance recompute");
}

Result<size_t> SmaMaintainer::VerifyAll(uint64_t max_sample_buckets) {
  // Whole-table exclusive hold: verification compares SMA entries against
  // the base data bucket by bucket; mutations mid-census would produce
  // false corruption verdicts.
  auto all = table_->latches()->LockAllExclusive();
  size_t failed = 0;
  for (Sma* sma : smas_->mutable_all()) {
    const Status s = sma->Verify(max_sample_buckets);
    if (s.ok()) continue;
    if (s.code() == StatusCode::kCorruption) {
      ++failed;  // Verify already marked it distrusted
      continue;
    }
    return s;
  }
  return failed;
}

Status SmaMaintainer::Rebuild() {
  // Whole-table exclusive hold (ascending shard order, see latch.h): a
  // rebuild tears groups down and re-materializes them from the base data.
  auto all = table_->latches()->LockAllExclusive();
  for (Sma* sma : smas_->mutable_all()) {
    if (sma->trusted() && !sma->stale()) continue;
    SMADB_RETURN_NOT_OK(sma->Rebuild());
  }
  return Status::OK();
}

}  // namespace smadb::sma
