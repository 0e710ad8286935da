#include "expr/expr.h"

#include "util/string_util.h"

namespace smadb::expr {

using storage::Schema;
using storage::TupleRef;
using util::Result;
using util::Status;
using util::TypeId;
using util::Value;

namespace {

class ColumnExpr final : public Expr {
 public:
  ColumnExpr(const Schema* schema, size_t index)
      : schema_(schema), index_(index) {}

  TypeId type() const override { return schema_->field(index_).type; }

  int64_t EvalInt(const TupleRef& t) const override {
    return t.GetRawInt(index_);
  }

  void EvalIntBatch(const storage::ColumnBatch& batch,
                    const storage::SelVector& sel,
                    int64_t* out) const override {
    const int64_t* v = batch.Ints(index_);
    if (sel.dense()) {
      const size_t n = sel.count();
      for (size_t k = 0; k < n; ++k) out[k] = v[k];
    } else {
      const std::vector<uint32_t>& idx = sel.indices();
      for (size_t k = 0; k < idx.size(); ++k) out[k] = v[idx[k]];
    }
  }

  Value Eval(const TupleRef& t) const override { return t.GetValue(index_); }

  std::string ToString() const override {
    return schema_->field(index_).name;
  }

  bool ReferencesColumn(size_t col) const override { return col == index_; }

 private:
  const Schema* schema_;
  size_t index_;
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}

  TypeId type() const override { return value_.type(); }

  int64_t EvalInt(const TupleRef&) const override { return value_.RawInt(); }

  void EvalIntBatch(const storage::ColumnBatch&,
                    const storage::SelVector& sel,
                    int64_t* out) const override {
    const int64_t v = value_.RawInt();
    const size_t n = sel.count();
    for (size_t k = 0; k < n; ++k) out[k] = v;
  }

  Value Eval(const TupleRef&) const override { return value_; }

  std::string ToString() const override { return value_.ToString(); }

  bool ReferencesColumn(size_t) const override { return false; }

 private:
  Value value_;
};

// Result type of integral arithmetic: decimal if either side is decimal
// (cents-scaled), otherwise int64.
TypeId ArithResultType(TypeId a, TypeId b) {
  if (a == TypeId::kDecimal || b == TypeId::kDecimal) return TypeId::kDecimal;
  return TypeId::kInt64;
}

class ArithExpr final : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)),
        type_(ArithResultType(lhs_->type(), rhs_->type())),
        lhs_decimal_(lhs_->type() == TypeId::kDecimal),
        rhs_decimal_(rhs_->type() == TypeId::kDecimal) {}

  TypeId type() const override { return type_; }

  int64_t EvalInt(const TupleRef& t) const override {
    return Combine(lhs_->EvalInt(t), rhs_->EvalInt(t));
  }

  void EvalIntBatch(const storage::ColumnBatch& batch,
                    const storage::SelVector& sel,
                    int64_t* out) const override {
    // Expr trees are shared read-only across workers, so the rhs scratch
    // is a local (one allocation per batch, amortized to nothing).
    const size_t n = sel.count();
    lhs_->EvalIntBatch(batch, sel, out);
    std::vector<int64_t> rhs(n);
    rhs_->EvalIntBatch(batch, sel, rhs.data());
    for (size_t k = 0; k < n; ++k) out[k] = Combine(out[k], rhs[k]);
  }

  Value Eval(const TupleRef& t) const override {
    const int64_t v = EvalInt(t);
    return type_ == TypeId::kDecimal ? Value::MakeDecimal(util::Decimal(v))
                                     : Value::Int64(v);
  }

  std::string ToString() const override {
    const char* sym = op_ == ArithOp::kAdd   ? "+"
                      : op_ == ArithOp::kSub ? "-"
                                             : "*";
    return "(" + lhs_->ToString() + " " + sym + " " + rhs_->ToString() + ")";
  }

  bool ReferencesColumn(size_t col) const override {
    return lhs_->ReferencesColumn(col) || rhs_->ReferencesColumn(col);
  }

 private:
  /// The single arithmetic kernel both scalar and batch evaluation share —
  /// one definition, so the paths agree bit for bit.
  int64_t Combine(int64_t a, int64_t b) const {
    if (type_ == TypeId::kDecimal) {
      // Promote plain integers to cents so 3 + 0.25 etc. is well-defined.
      if (!lhs_decimal_) a *= 100;
      if (!rhs_decimal_) b *= 100;
      switch (op_) {
        case ArithOp::kAdd:
          return a + b;
        case ArithOp::kSub:
          return a - b;
        case ArithOp::kMul: {
          // cents * cents has scale 10^4; round half away from zero.
          const int64_t raw = a * b;
          const int64_t half = raw >= 0 ? 50 : -50;
          return (raw + half) / 100;
        }
      }
    }
    switch (op_) {
      case ArithOp::kAdd:
        return a + b;
      case ArithOp::kSub:
        return a - b;
      case ArithOp::kMul:
        return a * b;
    }
    return 0;
  }

  ArithOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
  TypeId type_;
  bool lhs_decimal_;
  bool rhs_decimal_;
};

Status CheckIntegral(const Expr& e, const char* what) {
  const TypeId t = e.type();
  if (t == TypeId::kDouble || t == TypeId::kString) {
    return Status::NotSupported(
        util::Format("%s requires an integral-family expression, got %s (%s)",
                     what, std::string(util::TypeIdToString(t)).c_str(),
                     e.ToString().c_str()));
  }
  return Status::OK();
}

}  // namespace

Result<ExprPtr> Column(const Schema* schema, std::string_view name) {
  SMADB_ASSIGN_OR_RETURN(size_t idx, schema->FieldIndex(name));
  return ExprPtr(std::make_shared<ColumnExpr>(schema, idx));
}

ExprPtr Literal(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }

Result<ExprPtr> Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  SMADB_RETURN_NOT_OK(CheckIntegral(*lhs, "arithmetic"));
  SMADB_RETURN_NOT_OK(CheckIntegral(*rhs, "arithmetic"));
  return ExprPtr(std::make_shared<ArithExpr>(op, std::move(lhs),
                                             std::move(rhs)));
}

Result<ExprPtr> OneMinus(ExprPtr e) {
  return Arith(ArithOp::kSub,
               Literal(Value::MakeDecimal(util::Decimal(100))), std::move(e));
}

Result<ExprPtr> OnePlus(ExprPtr e) {
  return Arith(ArithOp::kAdd,
               Literal(Value::MakeDecimal(util::Decimal(100))), std::move(e));
}

}  // namespace smadb::expr
