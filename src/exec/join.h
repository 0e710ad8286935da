// Join operators.
//
// HashJoin — classic equi hash join (build right, probe left) over integral
// keys, used by the multi-table TPC-D workloads.
//
// SmaSemiJoin — the executor realization of §4's semi-join SMAs: for
//   select R.* from R, S where R.A θ S.B
// it first grades R's buckets against the minimax of S.B (sma::
// ReduceSemiJoin), skips disqualified buckets entirely, streams
// proven-all-match buckets without probing, and probes only the rest.

#ifndef SMADB_EXEC_JOIN_H_
#define SMADB_EXEC_JOIN_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/bucket_source.h"
#include "exec/operator.h"
#include "expr/predicate.h"
#include "sma/semijoin.h"
#include "storage/table.h"

namespace smadb::exec {

/// Equi hash join: output = concatenation of left and right fields.
/// The build side (right) is materialized in Init; the probe side (left)
/// streams batch by batch. Duplicates on either side produce the full
/// cross product of matches, in left order, then build order.
class HashJoin final : public Operator {
 public:
  /// `left_col` / `right_col` are ordinals into the children's schemas;
  /// both must be integral-family of the same family.
  static util::Result<std::unique_ptr<HashJoin>> Make(
      std::unique_ptr<Operator> left, size_t left_col,
      std::unique_ptr<Operator> right, size_t right_col);

  const storage::Schema& output_schema() const override { return schema_; }

  util::Status Init() override;
  util::Result<bool> NextBatch(Batch* out) override;

  void BindContext(util::QueryContext* ctx) override {
    Operator::BindContext(ctx);
    auto scope = BindProfile("HashJoin");
    left_->BindContext(ctx);
    right_->BindContext(ctx);
  }

 private:
  HashJoin(std::unique_ptr<Operator> left, size_t left_col,
           std::unique_ptr<Operator> right, size_t right_col,
           storage::Schema schema)
      : left_(std::move(left)),
        left_col_(left_col),
        right_(std::move(right)),
        right_col_(right_col),
        schema_(std::move(schema)),
        out_buffer_(&schema_) {}

  /// Appends the current left row joined with build row `right_idx` to
  /// `out`, decoding only the columns `out` projects.
  void EmitCombined(size_t right_idx, storage::ColumnBatch* out);

  std::unique_ptr<Operator> left_;
  size_t left_col_;
  std::unique_ptr<Operator> right_;
  size_t right_col_;
  storage::Schema schema_;

  // Build side: materialized right tuples + key -> row indices.
  std::vector<storage::TupleBuffer> build_rows_;
  std::unordered_map<int64_t, std::vector<size_t>> build_index_;

  // Probe state. The left batch is configured at the first NextBatch, from
  // the consumer's projection plus the join key.
  Batch left_batch_;
  size_t left_pos_ = 0;    // next selection index into left_batch_
  uint32_t left_row_ = 0;  // the left row whose matches are being emitted
  bool left_done_ = false;
  const std::vector<size_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
  storage::TupleBuffer out_buffer_;
};

/// Semi-join R ⋉ S on `R.r_col op S.s_col`, SMA-reduced per paper §4.
/// Output schema = R's schema.
///
/// Optional side predicates make this the building block for EXISTS-style
/// queries (TPC-D Q4): `r_pred` restricts R (graded against R's SMAs and
/// combined with the semi-join reduction, so both prune buckets), and
/// `s_pred` restricts which S tuples count as join partners.
class SmaSemiJoin final : public Operator {
 public:
  /// `r_smas` supplies R's min/max SMAs (may lack them: no bucket pruning
  /// then); `s_smas` may be null (S scanned for its minimax).
  static util::Result<std::unique_ptr<SmaSemiJoin>> Make(
      storage::Table* r, size_t r_col, expr::CmpOp op, storage::Table* s,
      size_t s_col, const sma::SmaSet* r_smas,
      const sma::SmaSet* s_smas = nullptr,
      expr::PredicatePtr r_pred = nullptr,
      expr::PredicatePtr s_pred = nullptr);

  const storage::Schema& output_schema() const override {
    return r_->schema();
  }

  util::Status Init() override;

  /// Streams R's candidate buckets batch by batch (a batch never spans
  /// buckets): the R predicate refines the selection unless the bucket
  /// qualifies, and the join probe refines it unless every tuple of the
  /// bucket provably matches.
  util::Result<bool> NextBatch(Batch* out) override;

  void AddRequiredBatchColumns(std::vector<bool>* mask) const override {
    (*mask)[r_col_] = true;
    if (r_pred_ != nullptr) r_pred_->AddReferencedColumns(mask);
  }

  /// Buckets skipped by the reduction (the §4 payoff).
  uint64_t buckets_pruned() const { return buckets_pruned_; }
  uint64_t buckets_unprobed() const { return buckets_unprobed_; }

 private:
  SmaSemiJoin(storage::Table* r, size_t r_col, expr::CmpOp op,
              storage::Table* s, size_t s_col, const sma::SmaSet* r_smas,
              const sma::SmaSet* s_smas, expr::PredicatePtr r_pred,
              expr::PredicatePtr s_pred)
      : r_(r),
        r_col_(r_col),
        op_(op),
        s_(s),
        s_col_(s_col),
        r_smas_(r_smas),
        s_smas_(s_smas),
        r_pred_(std::move(r_pred)),
        s_pred_(std::move(s_pred)),
        r_reader_(r) {}

  /// Does value `a` join with some S tuple?
  bool Matches(int64_t a) const;

  /// Advances to the first page of the next candidate bucket.
  util::Status NextBucket();

  storage::Table* r_;
  size_t r_col_;
  expr::CmpOp op_;
  storage::Table* s_;
  size_t s_col_;
  const sma::SmaSet* r_smas_;
  const sma::SmaSet* s_smas_;
  expr::PredicatePtr r_pred_;  // may be null (no R restriction)
  expr::PredicatePtr s_pred_;  // may be null (all of S joins)

  sma::SemiJoinReduction reduction_;
  std::unique_ptr<sma::BucketGrader> r_grader_;
  std::unordered_set<int64_t> s_values_;  // for kEq / kNe probing

  int64_t curr_bucket_ = -1;
  bool curr_all_match_ = false;
  sma::Grade curr_r_grade_ = sma::Grade::kAmbivalent;
  // Streams R's candidate buckets snapshot-clamped and latched; grading is
  // superset-sound against the snapshot, so no boundary demotion is needed
  // (§4 reduction never reads aggregate values directly).
  BucketReader r_reader_;
  storage::TableSnapshot r_snap_;
  bool done_ = false;
  uint64_t buckets_pruned_ = 0;
  uint64_t buckets_unprobed_ = 0;
};

}  // namespace smadb::exec

#endif  // SMADB_EXEC_JOIN_H_
