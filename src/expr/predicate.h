// Selection predicates: atomic comparisons composed with AND / OR.
//
// Exactly the predicate language of paper §3.1 — atoms of the forms
//   A = c,  A <= c,  A < c,  A >= c,  A > c,  A <= B,  A < B
// (plus A != c as a documented extension), conjunctively or disjunctively
// combined. The same tree drives tuple-level evaluation here and
// bucket-level grading in sma/grade.h.

#ifndef SMADB_EXPR_PREDICATE_H_
#define SMADB_EXPR_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "util/status.h"

namespace smadb::expr {

/// Comparison operator of an atom.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view CmpOpToString(CmpOp op);

/// Applies `op` to an exact integral comparison.
inline bool CompareInt(int64_t a, CmpOp op, int64_t b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

/// Boolean predicate tree.
class Predicate {
 public:
  enum class Kind { kTrue, kAtomConst, kAtomTwoCols, kAtomString, kAnd, kOr };

  /// The always-true predicate (unrestricted query, e.g. pure aggregation).
  static std::shared_ptr<const Predicate> True();

  /// Atom `column op constant`. The column must be integral-family and the
  /// constant of a compatible type (date vs date, decimal vs decimal, ...).
  static util::Result<std::shared_ptr<const Predicate>> AtomConst(
      const storage::Schema* schema, std::string_view column, CmpOp op,
      util::Value constant);

  /// Atom `columnA op columnB`, both integral-family, same type.
  static util::Result<std::shared_ptr<const Predicate>> AtomTwoCols(
      const storage::Schema* schema, std::string_view column_a, CmpOp op,
      std::string_view column_b);

  /// Atom `column = 'literal'` or `column != 'literal'` over a string
  /// column (equality only — the op must be kEq or kNe). Gradeable through
  /// a count-by-value SMA on the column.
  static util::Result<std::shared_ptr<const Predicate>> AtomString(
      const storage::Schema* schema, std::string_view column, CmpOp op,
      std::string literal);

  static std::shared_ptr<const Predicate> And(
      std::shared_ptr<const Predicate> a, std::shared_ptr<const Predicate> b);
  static std::shared_ptr<const Predicate> Or(
      std::shared_ptr<const Predicate> a, std::shared_ptr<const Predicate> b);

  Kind kind() const { return kind_; }

  /// Tuple-level evaluation: the scalar reference EvalBatch is tested
  /// against (operators only ever run EvalBatch).
  bool Eval(const storage::TupleRef& t) const;

  /// Batch-level evaluation: refines `sel` (AND-semantics) to the rows of
  /// `batch` satisfying this predicate, agreeing row-for-row with Eval().
  /// Callers seed `sel` from the bucket's grade — SelectAll for qualifying
  /// and ambivalent buckets (qualifying buckets simply skip the call) —
  /// and every referenced column must be decoded in `batch`.
  void EvalBatch(const storage::ColumnBatch& batch,
                 storage::SelVector* sel) const;

  /// Sets `mask[c]` for every column this predicate reads (`mask` sized to
  /// the schema). Consumers use it to build batch projections.
  void AddReferencedColumns(std::vector<bool>* mask) const;

  /// Atom accessors (valid for the atom kinds).
  size_t column() const { return column_; }
  CmpOp op() const { return op_; }
  int64_t constant() const { return constant_; }
  size_t rhs_column() const { return rhs_column_; }
  /// The literal of a kAtomString atom.
  const std::string& string_constant() const { return str_constant_; }

  /// Children (valid for kAnd / kOr).
  const Predicate* left() const { return left_.get(); }
  const Predicate* right() const { return right_.get(); }

  std::string ToString(const storage::Schema* schema = nullptr) const;

 private:
  explicit Predicate(Kind kind) : kind_(kind) {}

  Kind kind_;
  // Atom state. Constants are raw integral payloads (cents / days / ints).
  size_t column_ = 0;
  CmpOp op_ = CmpOp::kEq;
  int64_t constant_ = 0;
  size_t rhs_column_ = 0;
  std::string str_constant_;
  // Composite state.
  std::shared_ptr<const Predicate> left_;
  std::shared_ptr<const Predicate> right_;
};

using PredicatePtr = std::shared_ptr<const Predicate>;

}  // namespace smadb::expr

#endif  // SMADB_EXPR_PREDICATE_H_
