#include "exec/batch_aggregator.h"

#include <cstring>
#include <limits>

namespace smadb::exec {

using storage::SelVector;
using util::TypeId;
using util::Value;

namespace {

// Serialized width of one group-by column inside the raw key: integral
// family and doubles widen to 8 bytes, strings keep their capacity.
uint16_t RawKeyBytes(const storage::Field& f) {
  return f.type == TypeId::kString ? f.capacity : 8;
}

}  // namespace

BatchAggregator::BatchAggregator(const storage::Schema* input,
                                 const std::vector<size_t>* group_by,
                                 const std::vector<AggSpec>* aggs)
    : input_(input), group_by_(group_by), aggs_(aggs) {
  key_bytes_.reserve(group_by->size());
  for (size_t col : *group_by) {
    const uint16_t b = RawKeyBytes(input->field(col));
    key_bytes_.push_back(b);
    key_width_ += b;
  }
  key_ptrs_.resize(group_by->size());
  key_scratch_.resize(key_width_);
}

std::vector<bool> BatchAggregator::RequiredColumns() const {
  std::vector<bool> mask(input_->num_fields(), false);
  for (size_t col : *group_by_) mask[col] = true;
  for (const AggSpec& a : *aggs_) {
    if (a.arg == nullptr) continue;
    for (size_t c = 0; c < input_->num_fields(); ++c) {
      if (a.arg->ReferencesColumn(c)) mask[c] = true;
    }
  }
  return mask;
}

BatchAggregator::Group BatchAggregator::MakeGroup() const {
  Group g;
  g.acc.resize(aggs_->size(), 0);
  for (size_t i = 0; i < aggs_->size(); ++i) {
    switch ((*aggs_)[i].kind) {
      case AggKind::kMin:
        g.acc[i] = std::numeric_limits<int64_t>::max();
        break;
      case AggKind::kMax:
        g.acc[i] = std::numeric_limits<int64_t>::min();
        break;
      default:
        break;  // sums/counts start at the additive identity
    }
  }
  return g;
}

void BatchAggregator::BuildKey(size_t r) {
  char* p = key_scratch_.data();
  for (size_t i = 0; i < key_ptrs_.size(); ++i) {
    const KeyPtr& kp = key_ptrs_[i];
    if (kp.i64 != nullptr) {
      std::memcpy(p, &kp.i64[r], sizeof(int64_t));
    } else if (kp.f64 != nullptr) {
      std::memcpy(p, &kp.f64[r], sizeof(double));
    } else {
      std::memcpy(p, kp.str + r * static_cast<size_t>(kp.bytes), kp.bytes);
    }
    p += kp.bytes;
  }
}

void BatchAggregator::AddBatch(const Batch& batch) {
  const SelVector& sel = batch.sel;
  const size_t n = sel.count();
  if (n == 0) return;

  // Hoist column base pointers (and their DCHECKs) out of the row loops.
  for (size_t i = 0; i < group_by_->size(); ++i) {
    const size_t col = (*group_by_)[i];
    KeyPtr& kp = key_ptrs_[i];
    kp = KeyPtr{};
    kp.bytes = key_bytes_[i];
    switch (input_->field(col).type) {
      case TypeId::kDouble:
        kp.f64 = batch.cols.Doubles(col);
        break;
      case TypeId::kString:
        kp.str = batch.cols.StringData(col);
        break;
      default:
        kp.i64 = batch.cols.Ints(col);
        break;
    }
  }

  // Pass 1: resolve each selected row's group id. The last-key cache makes
  // clustered input (the paper's §2.2 setting) a pointer compare per row.
  row_gids_.resize(n);
  int64_t last_gid = -1;
  for (size_t k = 0; k < n; ++k) {
    BuildKey(sel.row(k));
    uint32_t gid;
    if (last_gid >= 0 &&
        key_scratch_ == keys_[static_cast<size_t>(last_gid)]) {
      gid = static_cast<uint32_t>(last_gid);
    } else {
      auto [it, inserted] =
          gids_.try_emplace(key_scratch_, static_cast<uint32_t>(keys_.size()));
      if (inserted) {
        keys_.push_back(key_scratch_);
        groups_.push_back(MakeGroup());
      }
      gid = it->second;
      last_gid = gid;
    }
    row_gids_[k] = gid;
    ++groups_[gid].rows;
  }

  // Pass 2: one fused accumulate kernel per aggregate over the argument
  // vector (evaluated once for all selected rows).
  for (size_t i = 0; i < aggs_->size(); ++i) {
    const AggSpec& a = (*aggs_)[i];
    if (a.kind == AggKind::kCount) continue;  // rows carries it
    vals_.resize(n);
    a.arg->EvalIntBatch(batch.cols, sel, vals_.data());
    switch (a.kind) {
      case AggKind::kSum:
      case AggKind::kAvg:
        for (size_t k = 0; k < n; ++k) {
          groups_[row_gids_[k]].acc[i] += vals_[k];
        }
        break;
      case AggKind::kMin:
        for (size_t k = 0; k < n; ++k) {
          int64_t& acc = groups_[row_gids_[k]].acc[i];
          if (vals_[k] < acc) acc = vals_[k];
        }
        break;
      case AggKind::kMax:
        for (size_t k = 0; k < n; ++k) {
          int64_t& acc = groups_[row_gids_[k]].acc[i];
          if (vals_[k] > acc) acc = vals_[k];
        }
        break;
      case AggKind::kCount:
        break;
    }
  }
}

void BatchAggregator::DecodeKey(const std::string& raw,
                                std::vector<Value>* key) const {
  // Reconstructs exactly the Values TupleRef::GetValue yields, so group
  // keys serialize identically on both paths.
  const char* p = raw.data();
  for (size_t i = 0; i < group_by_->size(); ++i) {
    const storage::Field& f = input_->field((*group_by_)[i]);
    switch (f.type) {
      case TypeId::kInt32: {
        int64_t v;
        std::memcpy(&v, p, sizeof(v));
        (*key)[i] = Value::Int32(static_cast<int32_t>(v));
        break;
      }
      case TypeId::kInt64: {
        int64_t v;
        std::memcpy(&v, p, sizeof(v));
        (*key)[i] = Value::Int64(v);
        break;
      }
      case TypeId::kDate: {
        int64_t v;
        std::memcpy(&v, p, sizeof(v));
        (*key)[i] = Value::MakeDate(util::Date(static_cast<int32_t>(v)));
        break;
      }
      case TypeId::kDecimal: {
        int64_t v;
        std::memcpy(&v, p, sizeof(v));
        (*key)[i] = Value::MakeDecimal(util::Decimal(v));
        break;
      }
      case TypeId::kDouble: {
        double v;
        std::memcpy(&v, p, sizeof(v));
        (*key)[i] = Value::MakeDouble(v);
        break;
      }
      case TypeId::kString: {
        (*key)[i] = Value::String(
            std::string(p, strnlen(p, key_bytes_[i])));
        break;
      }
    }
    p += key_bytes_[i];
  }
}

void BatchAggregator::FlushInto(GroupTable* table) {
  std::vector<Value> key(group_by_->size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    const Group& grp = groups_[g];
    DecodeKey(keys_[g], &key);
    GroupState* gs = table->Get(key);
    gs->AddBucketCount(grp.rows);
    for (size_t i = 0; i < aggs_->size(); ++i) {
      if ((*aggs_)[i].kind == AggKind::kCount) continue;
      gs->AddSummary(i, grp.acc[i]);
    }
  }
  gids_.clear();
  keys_.clear();
  groups_.clear();
}

util::Status BucketFolder::Fold(uint64_t bucket, const expr::Predicate* pred) {
  SMADB_RETURN_NOT_OK(reader.OpenBucket(bucket));
  while (true) {
    batch.Clear();
    SMADB_ASSIGN_OR_RETURN(bool has, reader.NextBatch(&batch.cols));
    if (!has) return util::Status::OK();
    batch.SelectAll();
    if (pred != nullptr) pred->EvalBatch(batch.cols, &batch.sel);
    aggregator.AddBatch(batch);
  }
}

}  // namespace smadb::exec
