#include "exec/join.h"

#include "util/string_util.h"

namespace smadb::exec {

using expr::CmpOp;
using storage::Field;
using storage::Schema;
using storage::TupleRef;
using util::Result;
using util::Status;
using util::TypeId;

namespace {

Status CheckJoinColumn(const Schema& schema, size_t col, const char* side) {
  if (col >= schema.num_fields()) {
    return Status::OutOfRange(
        util::Format("%s join column %zu out of range", side, col));
  }
  const TypeId t = schema.field(col).type;
  if (t == TypeId::kDouble || t == TypeId::kString) {
    return Status::NotSupported(
        util::Format("%s join column must be integral-family", side));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<HashJoin>> HashJoin::Make(
    std::unique_ptr<Operator> left, size_t left_col,
    std::unique_ptr<Operator> right, size_t right_col) {
  SMADB_RETURN_NOT_OK(CheckJoinColumn(left->output_schema(), left_col,
                                      "left"));
  SMADB_RETURN_NOT_OK(CheckJoinColumn(right->output_schema(), right_col,
                                      "right"));
  std::vector<Field> fields = left->output_schema().fields();
  for (const Field& f : right->output_schema().fields()) {
    fields.push_back(f);
  }
  Schema schema(std::move(fields));
  if (schema.tuple_size() > storage::kPageSize) {
    return Status::NotSupported("joined tuple too wide");
  }
  return std::unique_ptr<HashJoin>(new HashJoin(std::move(left), left_col,
                                                std::move(right), right_col,
                                                std::move(schema)));
}

Status HashJoin::Init() {
  obs::OpTimer timer(prof_);
  build_rows_.clear();
  build_index_.clear();
  left_batch_.Clear();
  left_pos_ = 0;
  left_done_ = false;
  matches_ = nullptr;
  match_pos_ = 0;

  SMADB_RETURN_NOT_OK(right_->Init());
  const Schema& rs = right_->output_schema();
  Batch batch;
  SMADB_RETURN_NOT_OK(ConfigureBatch(&batch, &rs));
  while (true) {
    // The build side materializes in memory — checkpoint and charge it
    // against the budget batch by batch.
    SMADB_RETURN_NOT_OK(CheckRuntime("HashJoin"));
    SMADB_ASSIGN_OR_RETURN(bool has, right_->NextBatch(&batch));
    if (!has) break;
    SMADB_RETURN_NOT_OK(
        ChargeMemory(batch.sel.count() * rs.tuple_size(), "HashJoin"));
    const int64_t* keys = batch.cols.Ints(right_col_);
    for (size_t k = 0; k < batch.sel.count(); ++k) {
      const uint32_t r = batch.sel.row(k);
      build_index_[keys[r]].push_back(build_rows_.size());
      build_rows_.emplace_back(&rs);
      batch.cols.MaterializeRow(r, &build_rows_.back());
    }
  }
  if (prof_ != nullptr) {
    prof_->NotePeakBytes(build_rows_.size() * rs.tuple_size());
    prof_->SetDetail(util::Format("build_rows=%zu", build_rows_.size()));
  }
  return left_->Init();
}

void HashJoin::EmitCombined(size_t right_idx, storage::ColumnBatch* out) {
  const size_t left_fields = left_->output_schema().num_fields();
  const TupleRef right_tuple = build_rows_[right_idx].AsRef();
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    if (!out->decoded(c)) continue;
    out_buffer_.SetValue(
        c, c < left_fields ? left_batch_.cols.GetValue(c, left_row_)
                           : right_tuple.GetValue(c - left_fields));
  }
  out->AppendRow(out_buffer_.AsRef());
}

Result<bool> HashJoin::NextBatch(Batch* out) {
  obs::OpTimer timer(prof_);
  if (!left_batch_.configured()) {
    const Schema& ls = left_->output_schema();
    const std::vector<bool>& wanted = out->cols.projection();
    std::vector<bool> mask(wanted.begin(), wanted.begin() + ls.num_fields());
    mask[left_col_] = true;
    left_->AddRequiredBatchColumns(&mask);
    SMADB_RETURN_NOT_OK(ConfigureBatch(&left_batch_, &ls, std::move(mask)));
  }
  out->Clear();
  while (!out->cols.full()) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      EmitCombined((*matches_)[match_pos_++], &out->cols);
      continue;
    }
    if (left_pos_ >= left_batch_.sel.count()) {
      if (left_done_) break;
      SMADB_ASSIGN_OR_RETURN(bool has, left_->NextBatch(&left_batch_));
      if (!has) {
        left_done_ = true;
        break;
      }
      left_pos_ = 0;
      continue;
    }
    left_row_ = left_batch_.sel.row(left_pos_++);
    auto it = build_index_.find(left_batch_.cols.Ints(left_col_)[left_row_]);
    matches_ = it == build_index_.end() ? nullptr : &it->second;
    match_pos_ = 0;
  }
  out->SelectAll();
  if (prof_ != nullptr) prof_->AddRows(out->num_rows());
  return out->num_rows() > 0;
}

Result<std::unique_ptr<SmaSemiJoin>> SmaSemiJoin::Make(
    storage::Table* r, size_t r_col, CmpOp op, storage::Table* s,
    size_t s_col, const sma::SmaSet* r_smas, const sma::SmaSet* s_smas,
    expr::PredicatePtr r_pred, expr::PredicatePtr s_pred) {
  SMADB_RETURN_NOT_OK(CheckJoinColumn(r->schema(), r_col, "R"));
  SMADB_RETURN_NOT_OK(CheckJoinColumn(s->schema(), s_col, "S"));
  if (r_smas != nullptr && r_smas->table() != r) {
    return Status::InvalidArgument("r_smas belongs to a different table");
  }
  return std::unique_ptr<SmaSemiJoin>(
      new SmaSemiJoin(r, r_col, op, s, s_col, r_smas, s_smas,
                      std::move(r_pred), std::move(s_pred)));
}

Status SmaSemiJoin::Init() {
  curr_bucket_ = -1;
  done_ = false;
  buckets_pruned_ = 0;
  buckets_unprobed_ = 0;
  s_values_.clear();
  // Captured before the reduction is built, so every bucket structure sized
  // off the live table covers at least the snapshot's buckets.
  r_snap_ = r_->CaptureSnapshot();
  r_reader_.set_snapshot(r_snap_);

  // Minimax of S.B — over the s_pred-filtered tuples when a filter is set
  // (the unfiltered shortcut via S's SMAs would be unsound for all_match).
  std::optional<int64_t> s_min, s_max;
  const bool need_values = op_ == CmpOp::kEq || op_ == CmpOp::kNe;
  if (s_pred_ == nullptr && !need_values) {
    SMADB_ASSIGN_OR_RETURN(auto range, sma::ColumnMinMax(s_, s_col_, s_smas_));
    s_min = range.first;
    s_max = range.second;
  } else {
    // One snapshot-clamped latched pass over S (concurrent appends past the
    // snapshot stay invisible; the reader's latch excludes page writers).
    const storage::TableSnapshot s_snap = s_->CaptureSnapshot();
    BucketReader s_reader(s_);
    s_reader.set_snapshot(s_snap);
    SMADB_RETURN_NOT_OK(s_reader.Open(0, s_snap.pages));
    std::vector<bool> mask(s_->schema().num_fields(), false);
    mask[s_col_] = true;
    if (s_pred_ != nullptr) s_pred_->AddReferencedColumns(&mask);
    Batch batch;
    SMADB_RETURN_NOT_OK(ConfigureBatch(&batch, &s_->schema(), std::move(mask)));
    while (true) {
      SMADB_RETURN_NOT_OK(CheckRuntime("SmaSemiJoin"));
      batch.Clear();
      SMADB_ASSIGN_OR_RETURN(bool has, s_reader.NextBatch(&batch.cols));
      if (!has) break;
      batch.SelectAll();
      if (s_pred_ != nullptr) s_pred_->EvalBatch(batch.cols, &batch.sel);
      const int64_t* values = batch.cols.Ints(s_col_);
      for (size_t k = 0; k < batch.sel.count(); ++k) {
        const int64_t v = values[batch.sel.row(k)];
        s_min = s_min.has_value() ? std::min(*s_min, v) : v;
        s_max = s_max.has_value() ? std::max(*s_max, v) : v;
        if (need_values) s_values_.insert(v);
      }
    }
  }

  if (r_smas_ != nullptr) {
    SMADB_ASSIGN_OR_RETURN(
        reduction_,
        sma::ReduceSemiJoinWithRange(r_smas_, r_col_, op_, s_min, s_max));
  } else {
    // No reduction possible; everything is a candidate (unless S is empty).
    const bool s_empty = !s_min.has_value();
    reduction_.candidates = util::BitVector(r_->num_buckets(), !s_empty);
    reduction_.all_match = util::BitVector(r_->num_buckets(), false);
    reduction_.s_min = s_min;
    reduction_.s_max = s_max;
  }

  // R-side predicate: grade it against R's SMAs so qualifying buckets skip
  // per-tuple evaluation and disqualifying ones are skipped entirely.
  if (r_pred_ != nullptr && r_smas_ != nullptr) {
    r_grader_ = sma::BucketGrader::Create(r_pred_, r_smas_);
  } else {
    r_grader_ = nullptr;
  }
  return NextBucket();
}

bool SmaSemiJoin::Matches(int64_t a) const {
  switch (op_) {
    case CmpOp::kEq:
      return s_values_.count(a) > 0;
    case CmpOp::kNe:
      // ∃ b ≠ a ⇔ S has a value other than a.
      if (s_values_.empty()) return false;
      if (s_values_.size() > 1) return true;
      return s_values_.count(a) == 0;
    case CmpOp::kLe:
      return reduction_.s_max.has_value() && a <= *reduction_.s_max;
    case CmpOp::kLt:
      return reduction_.s_max.has_value() && a < *reduction_.s_max;
    case CmpOp::kGe:
      return reduction_.s_min.has_value() && a >= *reduction_.s_min;
    case CmpOp::kGt:
      return reduction_.s_min.has_value() && a > *reduction_.s_min;
  }
  return false;
}

Status SmaSemiJoin::NextBucket() {
  r_reader_.Close();
  const uint64_t buckets = r_snap_.buckets;
  while (true) {
    // Bucket-granular checkpoint (covers the prune loop too).
    SMADB_RETURN_NOT_OK(CheckRuntime("SmaSemiJoin"));
    ++curr_bucket_;
    if (static_cast<uint64_t>(curr_bucket_) >= buckets) {
      done_ = true;
      return Status::OK();
    }
    if (!reduction_.candidates.Get(static_cast<size_t>(curr_bucket_))) {
      ++buckets_pruned_;
      continue;
    }
    // R-side predicate grading: disqualified buckets are skipped too.
    curr_r_grade_ = sma::Grade::kAmbivalent;
    if (r_pred_ == nullptr) {
      curr_r_grade_ = sma::Grade::kQualifies;
    } else if (r_grader_ != nullptr) {
      SMADB_ASSIGN_OR_RETURN(
          curr_r_grade_,
          r_grader_->GradeBucket(static_cast<uint64_t>(curr_bucket_)));
      if (curr_r_grade_ == sma::Grade::kDisqualifies) {
        ++buckets_pruned_;
        continue;
      }
    }
    curr_all_match_ =
        reduction_.all_match.Get(static_cast<size_t>(curr_bucket_));
    if (curr_all_match_ && curr_r_grade_ == sma::Grade::kQualifies) {
      ++buckets_unprobed_;
    }
    break;
  }
  return r_reader_.OpenBucket(static_cast<uint64_t>(curr_bucket_));
}

Result<bool> SmaSemiJoin::NextBatch(Batch* out) {
  while (!done_) {
    out->Clear();
    SMADB_ASSIGN_OR_RETURN(bool has, r_reader_.NextBatch(&out->cols));
    if (!has) {
      SMADB_RETURN_NOT_OK(NextBucket());
      continue;
    }
    out->SelectAll();
    if (curr_r_grade_ != sma::Grade::kQualifies) {
      r_pred_->EvalBatch(out->cols, &out->sel);
    }
    if (!curr_all_match_) {
      const int64_t* values = out->cols.Ints(r_col_);
      out->sel.Filter([&](uint32_t r) { return Matches(values[r]); });
    }
    return true;
  }
  return false;
}

}  // namespace smadb::exec
