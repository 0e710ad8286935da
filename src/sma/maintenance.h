// Incremental SMA maintenance (paper §2.1: "due to the direct correspondence
// between SMA-file entries and buckets ... SMA-files are easy to update. The
// algorithms behind are simple and very efficient. At most one additional
// page access is needed for an updated tuple.").
//
// Inserts fold the new tuple into each SMA entry in place (sum/count add,
// min/max widen) — one SMA page per affected group file. Updates cannot
// shrink a min/max incrementally, so affected SMAs recompute the bucket's
// entries from the bucket itself (one bucket + one SMA page per group).
//
// Trust: every maintained SMA is stamped with the table's new modification
// epoch before the table write, so planner staleness checks stay green even
// mid-mutation. Distrusted SMAs (condemned by a checksum failure or a failed
// Verify()) are skipped — incremental folding into corrupt entries is wasted
// work — and repaired wholesale by the next Rebuild() call.

#ifndef SMADB_SMA_MAINTENANCE_H_
#define SMADB_SMA_MAINTENANCE_H_

#include "sma/builder.h"
#include "sma/sma_set.h"
#include "storage/table.h"

namespace smadb::sma {

/// Couples a table with its SmaSet so mutations keep both consistent.
class SmaMaintainer {
 public:
  SmaMaintainer(storage::Table* table, SmaSet* smas)
      : table_(table), smas_(smas) {}

  /// Appends `tuple` to the table and folds it into every SMA. New buckets
  /// extend each SMA-file by one identity entry first; unseen group keys
  /// create a new (backfilled) SMA-file.
  util::Status Insert(const storage::TupleBuffer& tuple,
                      storage::Rid* rid = nullptr);

  /// Updates one column of one tuple, then repairs every SMA whose argument
  /// or grouping references that column by recomputing the affected
  /// bucket's entries.
  util::Status UpdateColumn(storage::Rid rid, size_t col,
                            const util::Value& v);

  /// Tombstones one tuple and recomputes the affected bucket's entries in
  /// every SMA (a removed tuple can shrink counts/sums and move min/max,
  /// so all SMAs are affected).
  util::Status Delete(storage::Rid rid);

  /// Self-check every SMA against the base data (sampled; see Sma::Verify).
  /// Failing SMAs are marked distrusted; returns how many failed. Non-
  /// corruption errors (e.g. base-table I/O) surface immediately.
  util::Result<size_t> VerifyAll(uint64_t max_sample_buckets = 16);

  /// The maintenance hook of the degradation ladder: re-materializes every
  /// distrusted or stale SMA from the base data. Healthy SMAs are untouched.
  util::Status Rebuild();

 private:
  storage::Table* table_;
  SmaSet* smas_;
};

}  // namespace smadb::sma

#endif  // SMADB_SMA_MAINTENANCE_H_
