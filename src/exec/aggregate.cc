#include "exec/aggregate.h"

#include <algorithm>

#include "util/string_util.h"

namespace smadb::exec {

using storage::Field;
using storage::Schema;
using storage::TupleBuffer;
using util::Result;
using util::Status;
using util::TypeId;
using util::Value;

std::string_view AggKindToString(AggKind k) {
  switch (k) {
    case AggKind::kSum:
      return "sum";
    case AggKind::kCount:
      return "count";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "?";
}

TypeId AggSpec::OutputType() const {
  switch (kind) {
    case AggKind::kCount:
      return TypeId::kInt64;
    case AggKind::kAvg:
      return TypeId::kDouble;
    case AggKind::kSum:
      return arg->type() == TypeId::kDecimal ? TypeId::kDecimal
                                             : TypeId::kInt64;
    case AggKind::kMin:
    case AggKind::kMax:
      return arg->type();
  }
  return TypeId::kInt64;
}

Status ValidateAggs(const std::vector<AggSpec>& aggs) {
  if (aggs.empty()) {
    return Status::InvalidArgument("aggregation needs at least one aggregate");
  }
  for (const AggSpec& a : aggs) {
    if (a.kind == AggKind::kCount) {
      if (a.arg != nullptr) {
        return Status::InvalidArgument("count(*) must not have an argument");
      }
      continue;
    }
    if (a.arg == nullptr) {
      return Status::InvalidArgument(
          util::Format("%s aggregate '%s' needs an argument",
                       std::string(AggKindToString(a.kind)).c_str(),
                       a.name.c_str()));
    }
    const TypeId t = a.arg->type();
    if (t == TypeId::kDouble || t == TypeId::kString) {
      return Status::NotSupported(
          "aggregation argument must be integral-family, got " +
          std::string(util::TypeIdToString(t)));
    }
  }
  return Status::OK();
}

Result<Schema> AggResultSchema(const Schema& input,
                               const std::vector<size_t>& group_by,
                               const std::vector<AggSpec>& aggs) {
  SMADB_RETURN_NOT_OK(ValidateAggs(aggs));
  std::vector<Field> fields;
  for (size_t col : group_by) {
    if (col >= input.num_fields()) {
      return Status::OutOfRange(
          util::Format("group-by column %zu out of range", col));
    }
    fields.push_back(input.field(col));
  }
  for (const AggSpec& a : aggs) {
    Field f;
    f.name = a.name;
    f.type = a.OutputType();
    f.capacity = 0;
    fields.push_back(f);
  }
  return Schema(std::move(fields));
}

void GroupState::AddSummary(size_t idx, int64_t value) {
  const AggSpec& a = (*aggs_)[idx];
  switch (a.kind) {
    case AggKind::kCount:
      break;  // AddBucketCount carries it
    case AggKind::kSum:
    case AggKind::kAvg:
      acc_[idx] += value;
      break;
    case AggKind::kMin:
      acc_[idx] = defined_[idx] ? std::min(acc_[idx], value) : value;
      defined_[idx] = true;
      break;
    case AggKind::kMax:
      acc_[idx] = defined_[idx] ? std::max(acc_[idx], value) : value;
      defined_[idx] = true;
      break;
  }
}

void GroupState::MergeFrom(const GroupState& o) {
  row_count_ += o.row_count_;
  for (size_t i = 0; i < aggs_->size(); ++i) {
    switch ((*aggs_)[i].kind) {
      case AggKind::kCount:
        break;  // row_count_ carries it
      case AggKind::kSum:
      case AggKind::kAvg:
        acc_[i] += o.acc_[i];
        break;
      case AggKind::kMin:
        if (o.defined_[i]) {
          acc_[i] = defined_[i] ? std::min(acc_[i], o.acc_[i]) : o.acc_[i];
          defined_[i] = true;
        }
        break;
      case AggKind::kMax:
        if (o.defined_[i]) {
          acc_[i] = defined_[i] ? std::max(acc_[i], o.acc_[i]) : o.acc_[i];
          defined_[i] = true;
        }
        break;
    }
  }
}

void GroupState::Finalize(const std::vector<Value>& key,
                          TupleBuffer* out) const {
  for (size_t i = 0; i < key.size(); ++i) out->SetValue(i, key[i]);
  for (size_t i = 0; i < aggs_->size(); ++i) {
    const size_t col = key.size() + i;
    const AggSpec& a = (*aggs_)[i];
    switch (a.kind) {
      case AggKind::kCount:
        out->SetInt64(col, row_count_);
        break;
      case AggKind::kSum:
        if (a.OutputType() == TypeId::kDecimal) {
          out->SetDecimal(col, util::Decimal(acc_[i]));
        } else {
          out->SetInt64(col, acc_[i]);
        }
        break;
      case AggKind::kAvg: {
        // "in the last phase, we divide the sums ... by the computed count"
        double sum = static_cast<double>(acc_[i]);
        if (a.arg->type() == TypeId::kDecimal) sum /= 100.0;
        out->SetDouble(col, row_count_ == 0
                                ? 0.0
                                : sum / static_cast<double>(row_count_));
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        // Emit in the argument's own type.
        const int64_t v = acc_[i];
        switch (a.OutputType()) {
          case TypeId::kInt32:
            out->SetInt32(col, static_cast<int32_t>(v));
            break;
          case TypeId::kDate:
            out->SetDate(col, util::Date(static_cast<int32_t>(v)));
            break;
          case TypeId::kDecimal:
            out->SetDecimal(col, util::Decimal(v));
            break;
          default:
            out->SetInt64(col, v);
            break;
        }
        break;
      }
    }
  }
}

std::string GroupTable::SerializeKey(const std::vector<Value>& key) {
  std::string out;
  for (const Value& v : key) {
    out += v.ToString();
    out += '\x1f';
  }
  return out;
}

size_t GroupTable::EntryBytes(const std::string& skey,
                              const std::vector<Value>& key) const {
  // Map node + serialized key + key Values + per-aggregate accumulators.
  return sizeof(Entry) + skey.capacity() + key.size() * sizeof(Value) +
         aggs_->size() * (sizeof(int64_t) + 1) + 64;
}

GroupState* GroupTable::Get(const std::vector<Value>& key) {
  const std::string skey = SerializeKey(key);
  auto it = groups_.find(skey);
  if (it == groups_.end()) {
    approx_bytes_ += EntryBytes(skey, key);
    it = groups_.emplace(skey, Entry{key, GroupState(aggs_)}).first;
  }
  return &it->second.state;
}

void GroupTable::MergeFrom(const GroupTable& o) {
  for (const auto& [skey, entry] : o.groups_) {
    auto it = groups_.find(skey);
    if (it == groups_.end()) {
      approx_bytes_ += EntryBytes(skey, entry.key);
      groups_.emplace(skey, entry);
    } else {
      it->second.state.MergeFrom(entry.state);
    }
  }
}

Status GroupTable::Emit(const Schema* schema,
                        std::vector<TupleBuffer>* out) const {
  out->clear();
  out->reserve(groups_.size());
  for (const auto& [skey, entry] : groups_) {
    // Groups without any contributing row are artifacts of identity
    // SMA entries (zero sums), not real result groups.
    if (entry.state.row_count() == 0) continue;
    TupleBuffer t(schema);
    entry.state.Finalize(entry.key, &t);
    out->push_back(std::move(t));
  }
  return Status::OK();
}

}  // namespace smadb::exec
