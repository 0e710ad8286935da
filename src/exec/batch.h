// exec::Batch: the unit of batch-at-a-time data flow (DESIGN.md §9).
//
// A Batch pairs a storage::ColumnBatch (decoded column vectors of up to
// `capacity` tuples, never spanning two stretches of fetched buckets when
// produced by a StretchReader) with a storage::SelVector naming the rows
// that survived predicate evaluation so far. The SMA grade verdict (§3.1)
// maps onto the selection vector directly:
//
//   kQualifies    -> SelectAll, predicate never evaluated (a stretch of
//                    qualifying buckets)
//   kDisqualifies -> bucket skipped, no batch produced
//   kAmbivalent   -> SelectAll, then Predicate::EvalBatch refines (any
//                    stretch holding an ambivalent bucket)
//
// Conventions (see Operator::NextBatch):
//   * A returned batch may have an empty selection; consumers skip it and
//     pull again (NextBatch returning true means "rows were decoded", not
//     "rows survived").
//   * Batch contents stay valid until the next NextBatch/Init on the same
//     operator.
//   * The consumer configures the projection; it must include every column
//     the producer itself reads (a scan's predicate columns, which
//     Predicate::AddReferencedColumns reports).

#ifndef SMADB_EXEC_BATCH_H_
#define SMADB_EXEC_BATCH_H_

#include <utility>
#include <vector>

#include "storage/column_batch.h"
#include "storage/schema.h"

namespace smadb::exec {

/// Rows per batch an operator configures for the batches it owns: big
/// enough to amortize per-batch overhead, small enough that a few decoded
/// columns stay L1/L2-resident (X8 found 64..4096 within 4 % of each
/// other).
inline constexpr size_t kDefaultBatchSize = 1024;

struct Batch {
  storage::ColumnBatch cols;
  storage::SelVector sel;

  /// One-time setup (re-Configure to change shape). Empty projection =
  /// decode all columns.
  void Configure(const storage::Schema* schema, size_t capacity,
                 std::vector<bool> projection = {}) {
    cols.Configure(schema, capacity, std::move(projection));
    sel.SelectNone();
  }

  size_t capacity() const { return cols.capacity(); }
  size_t num_rows() const { return cols.num_rows(); }

  void Clear() {
    cols.Clear();
    sel.SelectNone();
  }

  /// Marks every decoded row selected (the qualifying-grade state).
  void SelectAll() {
    sel.SelectAll(static_cast<uint32_t>(cols.num_rows()));
  }
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_BATCH_H_
