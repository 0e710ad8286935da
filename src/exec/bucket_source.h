// BucketSource / StretchReader / BucketReader: the graded-stretch walk
// every plan makes.
//
// Every plan walks the same structure: the table's physically consecutive
// buckets (§2.1), graded per predicate (§3.1) a morsel at a time, whose
// fetched buckets are read a run of pages at a time. The plans differ only
// in what a qualifying bucket costs: SMA_Scan (§3.2) reads it without
// evaluating the predicate, SMA_GAggr (§3.3) answers it from aggregate-SMA
// entries, and without SMAs every bucket grades ambivalent (the plain
// scan). A morsel is a run of consecutive buckets spanning one read run
// (storage::kRunPages pages), which is also one latch group of the table's
// storage::BucketLatchTable. Workers claim morsels through ParallelFor and
// grade each one with GradeMorsel — one range read per bound SMA-file
// through the worker's own cursor-backed BucketGrader, under one shared
// latch acquire (graders hold page pins and are therefore per-thread; the
// Sma structures they read are immutable and shared) — then read its
// fetched buckets through a StretchReader.

#ifndef SMADB_EXEC_BUCKET_SOURCE_H_
#define SMADB_EXEC_BUCKET_SOURCE_H_

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "exec/batch.h"
#include "expr/predicate.h"
#include "sma/grade.h"
#include "storage/column_batch.h"
#include "storage/table.h"
#include "util/query_context.h"

namespace smadb::exec {

/// Per-run skip statistics (what Fig. 5's x-axis is made of).
struct SmaScanStats {
  uint64_t qualifying_buckets = 0;
  uint64_t disqualifying_buckets = 0;
  uint64_t ambivalent_buckets = 0;

  uint64_t BucketsTotal() const {
    return qualifying_buckets + disqualifying_buckets + ambivalent_buckets;
  }
  /// Fraction of buckets whose pages had to be fetched.
  double ProcessedFraction() const {
    const uint64_t total = BucketsTotal();
    return total == 0
               ? 0.0
               : static_cast<double>(qualifying_buckets +
                                     ambivalent_buckets) /
                     static_cast<double>(total);
  }
  /// Folds `g` into the census.
  void Tally(sma::Grade g) {
    switch (g) {
      case sma::Grade::kQualifies:
        ++qualifying_buckets;
        break;
      case sma::Grade::kDisqualifies:
        ++disqualifying_buckets;
        break;
      case sma::Grade::kAmbivalent:
        ++ambivalent_buckets;
        break;
    }
  }
  /// Merges a worker's partial census.
  void Merge(const SmaScanStats& o) {
    qualifying_buckets += o.qualifying_buckets;
    disqualifying_buckets += o.disqualifying_buckets;
    ambivalent_buckets += o.ambivalent_buckets;
  }
};

/// Consecutive buckets per morsel: as many as span one run of
/// storage::kRunPages pages (at least one) — one latch group, so a morsel
/// is graded and answered under one shared latch acquire.
inline uint64_t BucketsPerMorsel(uint32_t bucket_pages) {
  return storage::BucketsPerRun(bucket_pages);
}

/// Morsels covering `buckets` buckets of `bucket_pages` pages each.
inline uint64_t MorselCount(uint64_t buckets, uint32_t bucket_pages) {
  const uint64_t per = BucketsPerMorsel(bucket_pages);
  return (buckets + per - 1) / per;
}

/// Enumerates the buckets of a table for one predicate as morsels and
/// grades them a morsel at a time against the SMAs (GradeMorsel); workers
/// take `Morsel`s from ParallelFor and grade them with per-worker graders.
///
/// Construction captures a TableSnapshot: the walk covers exactly the
/// buckets of that consistent append prefix, and the one bucket a
/// concurrent appender may still be folding into (snapshot boundary) is
/// demoted to ambivalent — its SMA entries cover a superset of the
/// snapshot's rows, which is sound for skip decisions but not for direct
/// answers, so its rows are inspected (snapshot-clamped) instead.
class BucketSource {
 public:
  /// `smas` may be null — every bucket then grades ambivalent.
  BucketSource(storage::Table* table, expr::PredicatePtr pred,
               const sma::SmaSet* smas)
      : table_(table),
        pred_(std::move(pred)),
        smas_(smas),
        snapshot_(table->CaptureSnapshot()) {}

  const storage::TableSnapshot& snapshot() const { return snapshot_; }
  uint64_t num_buckets() const { return snapshot_.buckets; }

  uint64_t num_morsels() const {
    return MorselCount(num_buckets(), table_->bucket_pages());
  }

  /// Buckets [first, end) of morsel `m`.
  std::pair<uint64_t, uint64_t> Morsel(uint64_t m) const {
    const uint64_t per = BucketsPerMorsel(table_->bucket_pages());
    return {m * per, std::min<uint64_t>((m + 1) * per, num_buckets())};
  }

  /// A fresh grading stream for one worker (cursors hold page pins, so a
  /// grader must not be shared across threads; creating one per worker from
  /// the shared immutable SMAs is safe and keeps per-worker access
  /// amortized-sequential). Null when the source has no SMAs — callers
  /// treat every bucket as ambivalent then.
  std::unique_ptr<sma::BucketGrader> NewGrader() const {
    if (smas_ == nullptr) return nullptr;
    return sma::BucketGrader::Create(pred_, smas_);
  }

  /// Grades buckets [first, end) — at most one morsel, hence one latch
  /// group — into out[0, end - first) with `grader` (null = every bucket
  /// ambivalent) under one shared acquire of the group's latch, then
  /// demotes the snapshot-boundary bucket to ambivalent. The one grading
  /// entry point every consumer — planner census, scan or worker — goes
  /// through, so all censuses agree at every dop.
  ///
  /// With `hold` non-null the latch is handed to the caller instead of
  /// released, so SMA entries of the morsel can be read in the same hold
  /// (SMA_GAggr's direct answers); `hold` stays empty for a null grader.
  util::Status GradeMorsel(
      sma::BucketGrader* grader, uint64_t first, uint64_t end,
      sma::Grade* out,
      storage::BucketLatchTable::SharedGuard* hold = nullptr) const;

 private:
  storage::Table* table_;
  expr::PredicatePtr pred_;
  const sma::SmaSet* smas_;
  storage::TableSnapshot snapshot_;
};

/// Streams the live tuples of a consecutive page range — the page/slot walk
/// under every StretchReader. The range is pinned a
/// run of up to storage::kRunPages pages at a time (BufferPool::PinRun: one
/// pool mutex hold, one disk request per stretch of misses), and the run
/// is released before the next one is pinned, so a reader holds at most
/// one run's pins.
///
/// The reader holds the shared latch of the latch group its current page
/// belongs to (lock coupling: the old group's latch is released before the
/// next group's is acquired, so at most one latch is ever held), which
/// excludes concurrent writers of that group's buckets; a page's header is
/// read only under its group's latch. With a snapshot set, pages beyond the snapshot
/// prefix are never pinned and the snapshot's tail page exposes only its
/// visible slots. Callers must NOT hold an explicit latch on the buckets
/// they stream — shared_mutex is not reentrant.
class BucketReader {
 public:
  explicit BucketReader(storage::Table* table) : table_(table) {}

  /// Bounds every subsequent range by `snap` (copied).
  void set_snapshot(const storage::TableSnapshot& snap) {
    snapshot_ = snap;
    has_snapshot_ = true;
  }

  /// Positions on pages [first, end). May be called repeatedly (a
  /// StretchReader opens one range per stretch).
  util::Status Open(uint32_t first_page, uint32_t end_page);

  /// Positions on the pages of buckets [first, end).
  util::Status OpenBuckets(uint64_t first_bucket, uint64_t end_bucket) {
    return Open(
        table_->BucketPageRange(static_cast<uint32_t>(first_bucket)).first,
        table_->BucketPageRange(static_cast<uint32_t>(end_bucket - 1)).second);
  }

  /// Decodes the range's live tuples column-at-a-time into `cols` until
  /// the batch fills or the range is exhausted. Returns whether any rows
  /// were appended.
  util::Result<bool> NextBatch(storage::ColumnBatch* cols);

  /// Drops the run's pins and the bucket latch.
  void Close() {
    run_.Release();
    latch_.Release();
  }

  /// Pins the pages of buckets [first, end) (snapshot-clamped, at most one
  /// run) without decoding them, so their misses are read now; a later
  /// Open of the range adopts the pinned run instead of pinning it again.
  /// Runs not adopted stay pinned until ReleaseAhead.
  util::Status PinAhead(uint64_t first_bucket, uint64_t end_bucket);
  void ReleaseAhead() { ahead_.clear(); }

  /// Pages fetched through this reader since construction (cumulative
  /// across Open() calls) — the per-operator pages-read figure the query
  /// profile reports (DESIGN.md §11). Counts fetches, whether they hit
  /// the buffer pool or went to disk.
  uint64_t pages_opened() const { return pages_opened_; }

 private:
  /// Pins the run holding `page_` (unless pinned already), latches its
  /// latch group (coupling from the previous one), and sets the
  /// snapshot-clamped slot count.
  util::Status PinPage();

  storage::Table* table_;
  storage::PageRun run_;
  std::vector<storage::PageRun> ahead_;  // PinAhead's runs
  storage::BucketLatchTable::SharedGuard latch_;
  storage::TableSnapshot snapshot_;
  uint64_t pages_opened_ = 0;
  uint64_t latched_group_ = 0;
  uint32_t page_ = 0;
  uint32_t page_end_ = 0;
  uint16_t slot_ = 0;
  uint16_t page_count_ = 0;
  bool has_snapshot_ = false;
  bool open_ = false;
};

/// Reads the fetched buckets of one morsel at a time: the one read path of
/// every plan. Start turns a morsel's grades into stretches, each a maximal
/// run of consecutive fetched buckets, and with more than one pins them all
/// ahead (BucketReader::PinAhead — together at most one run, since a morsel
/// spans one), so the morsel's page reads reach the disk back to back
/// rather than one stretch per decode, where other readers' requests would
/// fall in between. Next then decodes each stretch through one reader
/// range, a batch at a time, and refines the batch's selection with the
/// predicate unless every bucket of the stretch qualifies: a qualifying
/// bucket keeps the dense all-rows selection (§3.2, no predicate
/// evaluation). One per worker (the reader pins pages).
class StretchReader {
 public:
  /// Reads `table` within `snapshot`; `ctx` (null = ungoverned) is the
  /// query's governor, checked once per batch so a cancel or deadline
  /// lands within a batch at every dop.
  StretchReader(storage::Table* table, const storage::TableSnapshot& snapshot,
                const util::QueryContext* ctx)
      : reader_(table), ctx_(ctx) {
    reader_.set_snapshot(snapshot);
  }

  /// Starts on the fetched buckets of [first, end), at most one morsel,
  /// graded grades[0, end - first). Disqualifying buckets are never
  /// fetched; qualifying ones only with `fetch_qualifying` (SMA_GAggr
  /// answers them from SMA entries instead). A stretch holding an
  /// ambivalent bucket is filtered with `pred`, which every tuple of a
  /// qualifying bucket satisfies.
  util::Status Start(uint64_t first, uint64_t end, const sma::Grade* grades,
                     bool fetch_qualifying, const expr::Predicate* pred);

  /// Decodes the started morsel's next batch into `out`, whose projection
  /// must cover the predicate's columns, and refines its selection; false
  /// once every stretch is drained. A batch never spans two stretches.
  util::Result<bool> Next(Batch* out);

  /// Pages fetched since construction (BucketReader::pages_opened).
  uint64_t pages_opened() const { return reader_.pages_opened(); }

 private:
  /// Buckets [first, end), with the predicate refining their batches (null
  /// when all of them qualify).
  struct Stretch {
    uint64_t first;
    uint64_t end;
    const expr::Predicate* pred;
  };

  BucketReader reader_;
  const util::QueryContext* ctx_;
  std::vector<Stretch> stretches_;  // the started morsel's
  size_t next_ = 0;                 // next stretch to open
  const expr::Predicate* pred_ = nullptr;  // the open stretch's
  bool open_ = false;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_BUCKET_SOURCE_H_
