// Physical-algebra operator interface: the iterator concept of Graefe [7]
// the paper's SMA_Scan / SMA_GAggr plug into (Init / NextBatch / implicit
// close via destructor). Every plan is a single operator over one table:
// SmaScan for selections and SmaGAggr for aggregations, each with and
// without SMAs. Operators produce column batches, never single tuples;
// plan::RunToCompletion is the one place where batches turn into result
// rows — see DESIGN.md §9.

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

  /// Binds the query's runtime governor (cancellation + deadline + memory
  /// budget, DESIGN.md §10). Null (the default state) runs ungoverned;
  /// bind before Init(). Overrides also register the operator's profile
  /// node (DESIGN.md §11) through BindProfile.
  virtual void BindContext(util::QueryContext* ctx) { ctx_ = ctx; }

 protected:
  /// Registers this operator's node in the bound query's profile; prof_
  /// stays null when the query is unprofiled. Call after setting ctx_.
  void BindProfile(const char* name) {
    obs::QueryProfile* profile = ctx_ != nullptr ? ctx_->profile() : nullptr;
    prof_ = profile != nullptr ? profile->NewNode(name) : nullptr;
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

  /// Charges what a structure's footprint `bytes` has grown past
  /// `*charged`, then records it as charged — how growing group state is
  /// charged batch by batch or morsel by morsel.
  util::Status ChargeGrowth(size_t bytes, size_t* charged,
                            std::string_view component) const {
    if (bytes <= *charged) return util::Status::OK();
    SMADB_RETURN_NOT_OK(ChargeMemory(bytes - *charged, component));
    *charged = bytes;
    return util::Status::OK();
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
/// SmaGAggr's emitter.
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
