// grade: partitioning the buckets of a relation into qualifying,
// disqualifying and ambivalent buckets for a selection predicate (paper
// §3.1), given the SMAs available on the table.
//
// Atom rules implemented exactly as in the paper for
//   A = c, A <= c, A < c, A >= c, A > c, A <= B, A < B  (min/max SMAs)
// and the count-by-value rules for count SMAs grouped solely by A —
// with two documented refinements:
//   * A = c additionally *qualifies* when min = max = c (the paper only
//     ever disqualifies for equality; the refinement is sound and strictly
//     more precise).
//   * the paper's literal ∩-over-all-x combination for count SMAs yields an
//     empty qualifying set; we implement the evident intent: a bucket
//     qualifies when every value present in it satisfies the predicate and
//     disqualifies when none does.
// A != c / A != B are supported as extensions with the dual rules.

#ifndef SMADB_SMA_GRADE_H_
#define SMADB_SMA_GRADE_H_

#include <memory>
#include <optional>
#include <vector>

#include "expr/predicate.h"
#include "sma/sma_set.h"

namespace smadb::sma {

/// The three-way bucket classification of §2.2/§3.1.
enum class Grade { kQualifies, kDisqualifies, kAmbivalent };

std::string_view GradeToString(Grade g);

/// Conjunctive combination (paper §3.1):
///   BUq = BUq1 ∩ BUq2,  BUd = BUd1 ∪ BUd2.
Grade CombineAnd(Grade a, Grade b);

/// Disjunctive combination (paper §3.1):
///   BUq = BUq1 ∪ BUq2,  BUd = BUd1 ∩ BUd2.
Grade CombineOr(Grade a, Grade b);

/// Grades `A op c` from the bucket's min/max of A. Either side may be
/// unknown (no SMA, or aggregate undefined), in which case only the
/// conclusions that do not need it are drawn.
Grade GradeMinMaxConst(expr::CmpOp op, std::optional<int64_t> mn,
                       std::optional<int64_t> mx, int64_t c);

/// Grades `A op B` (both attributes of the tuple) from both columns'
/// bucket min/max.
Grade GradeMinMaxTwoCols(expr::CmpOp op, std::optional<int64_t> mn_a,
                         std::optional<int64_t> mx_a,
                         std::optional<int64_t> mn_b,
                         std::optional<int64_t> mx_b);

/// Grades the buckets of a table for one predicate, binding each atom to
/// whatever SMAs the set offers (min/max — grouped or not — and
/// count-by-value). Buckets beyond an SMA's coverage get nothing from it
/// (an atom with no usable source grades ambivalent).
///
/// Grading works a range of buckets at a time (§2.3's "in sync" pass): each
/// bound SMA-file's entries for the range are read off its pinned page
/// through a cursor, grouped min/max SMAs fold to element-wise extremes
/// that skip undefined entries, the §3.1 atom rules apply element by
/// element, and AND/OR combine element-wise. Non-decreasing ranges touch
/// each SMA page once. A grader holds page pins, so it belongs to one
/// thread.
class BucketGrader {
 public:
  /// Binds `pred` against `smas`. Never fails on missing SMAs — atoms
  /// without a usable SMA simply grade ambivalent.
  static std::unique_ptr<BucketGrader> Create(expr::PredicatePtr pred,
                                              const SmaSet* smas);

  /// Grades buckets [first, end) into out[0, end - first). Most efficient
  /// when successive ranges do not move backwards.
  util::Status GradeRange(uint64_t first, uint64_t end, Grade* out);

  /// Grade of bucket `b`: GradeRange's one-bucket case.
  util::Result<Grade> GradeBucket(uint64_t b);

  /// True when at least one atom is backed by a SMA — otherwise every
  /// bucket will grade ambivalent and a plain scan is the better plan.
  bool has_sma_support() const { return has_sma_support_; }

 private:
  /// A min or max SMA read across its group files; `undefined` is its
  /// sentinel (also what a range past its coverage reads as).
  struct ExtremeSource {
    const Sma* sma = nullptr;
    std::vector<SmaFile::Cursor> cursors;
    int64_t undefined = 0;
  };

  struct Node {
    const expr::Predicate* pred = nullptr;
    // min/max sources for the lhs column and, for two-column atoms, the rhs.
    ExtremeSource min, max, rhs_min, rhs_max;
    // count-by-value source (count SMA grouped solely by the lhs column)
    // and, per count group, whether its value satisfies the atom.
    const Sma* count_sma = nullptr;
    std::vector<SmaFile::Cursor> count_cursors;
    std::vector<uint8_t> count_sat;
    // children for and/or; `scratch` holds the right child's grades.
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;
    std::vector<Grade> scratch;
  };

  BucketGrader(expr::PredicatePtr pred, const SmaSet* smas);

  std::unique_ptr<Node> Bind(const expr::Predicate* pred);
  void BindCount(Node* node);
  util::Status GradeNode(Node* node, uint64_t first, uint64_t end,
                         Grade* out);
  util::Status GradeAtom(Node* node, uint64_t first, uint64_t end,
                         Grade* out);

  /// Element-wise bucket extremes of `src` over [first, end) into
  /// out[0, end - first); src->undefined where no group is defined.
  util::Status ReadExtreme(ExtremeSource* src, bool is_min, uint64_t first,
                           uint64_t end, int64_t* out);

  /// Count-by-value rules over [first, end): refines each ambivalent
  /// out[k] to qualifies (every present value satisfies the atom) or
  /// disqualifies (none does).
  util::Status ApplyCounts(Node* node, uint64_t first, uint64_t end,
                           Grade* out);

  expr::PredicatePtr pred_;
  const SmaSet* smas_;
  std::unique_ptr<Node> root_;
  bool has_sma_support_ = false;
  // Per-range scratch, reused across calls: extremes of the lhs and rhs
  // columns, one group file's entries, and count-rule flags.
  std::vector<int64_t> mn_, mx_, rhs_mn_, rhs_mx_, entries_;
  std::vector<uint8_t> any_, all_, none_;
};

}  // namespace smadb::sma

#endif  // SMADB_SMA_GRADE_H_
