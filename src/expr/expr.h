// Scalar expression trees over tuples, bound to a schema at construction.
//
// SMA definitions aggregate expressions ("sum(l_extendedprice *
// (1 - l_discount))", paper Fig. 4) and queries evaluate the same
// expressions per tuple; sharing one Expr type guarantees the SMA-
// precomputed aggregate and the scan-computed aggregate agree bit-for-bit.
//
// The integral family (int32/int64/date/decimal) evaluates in exact int64
// arithmetic (decimals as cents); doubles evaluate in double. SMA aggregation
// is restricted to the integral family, so precomputed sums are exact.

#ifndef SMADB_EXPR_EXPR_H_
#define SMADB_EXPR_EXPR_H_

#include <memory>
#include <string>

#include "storage/column_batch.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "util/status.h"
#include "util/value.h"

namespace smadb::expr {

/// A bound scalar expression. Immutable and shareable.
class Expr {
 public:
  virtual ~Expr() = default;

  /// Static result type of the expression.
  virtual util::TypeId type() const = 0;

  /// Exact integral evaluation (decimals in cents, dates in days). Only
  /// valid when type() is in the integral family.
  virtual int64_t EvalInt(const storage::TupleRef& t) const = 0;

  /// Vectorized EvalInt: writes one value per *selected* row of `batch`
  /// into `out[0..sel.count())`, in selection order, with arithmetic
  /// bit-identical to the scalar path. Every referenced column must be
  /// decoded in `batch`. Only valid when type() is integral-family.
  virtual void EvalIntBatch(const storage::ColumnBatch& batch,
                            const storage::SelVector& sel,
                            int64_t* out) const = 0;

  /// Generic evaluation (allocates for strings).
  virtual util::Value Eval(const storage::TupleRef& t) const = 0;

  /// Canonical display form; also used for SMA/query expression matching.
  virtual std::string ToString() const = 0;

  /// True if the expression reads column `col`.
  virtual bool ReferencesColumn(size_t col) const = 0;
};

using ExprPtr = std::shared_ptr<const Expr>;

/// Arithmetic operators.
enum class ArithOp { kAdd, kSub, kMul };

/// Column reference. Fails at construction time for unknown names.
util::Result<ExprPtr> Column(const storage::Schema* schema,
                             std::string_view name);

/// Integral-family literal (int/date/decimal, passed as a Value).
ExprPtr Literal(util::Value v);

/// lhs op rhs. Decimal semantics: +,- exact; * rounds to cents, matching
/// util::Decimal. Mixing decimal and plain-integer operands follows the
/// decimal side.
util::Result<ExprPtr> Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);

/// Convenience for TPC-D money math: (1 - expr) with decimal 1.00.
util::Result<ExprPtr> OneMinus(ExprPtr e);
/// (1 + expr) with decimal 1.00.
util::Result<ExprPtr> OnePlus(ExprPtr e);

}  // namespace smadb::expr

#endif  // SMADB_EXPR_EXPR_H_
