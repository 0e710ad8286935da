// Physical-algebra operator interface: the iterator concept of Graefe [7]
// the paper's SMA_Scan / SMA_GAggr plug into (Init / NextBatch / implicit
// close via destructor). Operators exchange column batches, never single
// tuples; plan::RunToCompletion is the one place where batches turn into
// result rows — see DESIGN.md §9.

#ifndef SMADB_EXEC_OPERATOR_H_
#define SMADB_EXEC_OPERATOR_H_

#include <vector>

#include "exec/batch.h"
#include "obs/profile.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "util/query_context.h"
#include "util/status.h"

namespace smadb::exec {

/// Pull-based physical operator:
///   batch.Configure(&op.output_schema(), n, projection);
///   op.Init();  while (op.NextBatch(&batch) yields true) consume(batch);
class Operator {
 public:
  virtual ~Operator() = default;

  /// Schema of the rows NextBatch() produces.
  virtual const storage::Schema& output_schema() const = 0;

  /// Prepares the operator; pipeline breakers do their work here.
  virtual util::Status Init() = 0;

  /// Produces the next batch into `*out` (pre-Configured by the caller
  /// against output_schema()). Returns false at end of stream; true means
  /// rows were decoded — the selection may still be empty, in which case
  /// the consumer skips the batch and pulls again. Batch contents stay
  /// valid until the following NextBatch()/Init().
  virtual util::Result<bool> NextBatch(Batch* out) = 0;

  /// Sets `mask[c]` for every column of output_schema() this operator reads
  /// while producing batches (e.g. a scan's predicate columns). Consumers
  /// union this into the projection they Configure batches with, so
  /// projection pushdown never starves the producer. Default: none.
  virtual void AddRequiredBatchColumns(std::vector<bool>* mask) const {
    (void)mask;
  }

  /// Binds the query's runtime governor (cancellation + deadline + memory
  /// budget, DESIGN.md §10). Operators with children must propagate the
  /// bind down the tree. Null (the default state) runs ungoverned; bind
  /// before Init().
  ///
  /// Overrides also register the operator's profile node (DESIGN.md §11):
  /// hold the ProfileScope from BindProfile across the children's
  /// BindContext calls so their nodes nest beneath this one.
  virtual void BindContext(util::QueryContext* ctx) { ctx_ = ctx; }

 protected:
  /// Registers this operator in the bound query's profile (no-op when the
  /// query is unprofiled) and returns the scope that makes it the parent
  /// of nodes registered while the scope lives. Call after setting ctx_.
  obs::ProfileScope BindProfile(const char* name) {
    return obs::ProfileScope(ctx_ != nullptr ? ctx_->profile() : nullptr,
                             name, &prof_);
  }

  /// Null-safe cooperative checkpoint; operators call this at bucket/batch
  /// granularity (never per tuple — one relaxed load plus a clock read).
  util::Status CheckRuntime(std::string_view where) const {
    return util::QueryContext::Check(ctx_, where);
  }

  /// Null-safe memory charge against the query budget.
  util::Status ChargeMemory(size_t bytes, std::string_view component) const {
    return util::QueryContext::Charge(ctx_, bytes, component);
  }

  /// Configures a batch this operator owns and charges its column vectors
  /// against the query budget as "ColumnBatch" (DESIGN.md §10).
  util::Status ConfigureBatch(Batch* batch, const storage::Schema* schema,
                              std::vector<bool> projection = {}) const {
    batch->Configure(schema, kDefaultBatchSize, std::move(projection));
    return ChargeMemory(batch->cols.ApproxBytes(), "ColumnBatch");
  }

  util::QueryContext* ctx_ = nullptr;
  /// This operator's profile node; null unless the query runs under
  /// `explain analyze`. Feed with relaxed tallies, always null-guarded.
  obs::OperatorProfile* prof_ = nullptr;
};

/// Serves a pipeline breaker's materialized result rows batch by batch —
/// the one emitter GAggr, SMA_GAggr, ParallelScanAggr and Sort share.
struct RowEmitter {
  std::vector<storage::TupleBuffer> rows;
  size_t next = 0;

  void Reset() {
    rows.clear();
    next = 0;
  }

  /// Copies the next rows into `out`, up to its capacity, and tallies them
  /// on `prof` (may be null); false once every row has been served.
  bool Emit(Batch* out, obs::OperatorProfile* prof) {
    out->Clear();
    while (next < rows.size() && !out->cols.full()) {
      out->cols.AppendRow(rows[next++].AsRef());
    }
    out->SelectAll();
    if (prof != nullptr) prof->AddRows(out->num_rows());
    return out->num_rows() > 0;
  }
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_OPERATOR_H_
