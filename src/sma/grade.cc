#include "sma/grade.h"

#include <algorithm>

namespace smadb::sma {

using expr::CmpOp;
using expr::Predicate;
using util::Result;
using util::Status;

std::string_view GradeToString(Grade g) {
  switch (g) {
    case Grade::kQualifies:
      return "qualifies";
    case Grade::kDisqualifies:
      return "disqualifies";
    case Grade::kAmbivalent:
      return "ambivalent";
  }
  return "?";
}

Grade CombineAnd(Grade a, Grade b) {
  if (a == Grade::kDisqualifies || b == Grade::kDisqualifies) {
    return Grade::kDisqualifies;
  }
  if (a == Grade::kQualifies && b == Grade::kQualifies) {
    return Grade::kQualifies;
  }
  return Grade::kAmbivalent;
}

Grade CombineOr(Grade a, Grade b) {
  if (a == Grade::kQualifies || b == Grade::kQualifies) {
    return Grade::kQualifies;
  }
  if (a == Grade::kDisqualifies && b == Grade::kDisqualifies) {
    return Grade::kDisqualifies;
  }
  return Grade::kAmbivalent;
}

Grade GradeMinMaxConst(CmpOp op, std::optional<int64_t> mn,
                       std::optional<int64_t> mx, int64_t c) {
  switch (op) {
    case CmpOp::kEq:
      if (mx.has_value() && *mx < c) return Grade::kDisqualifies;
      if (mn.has_value() && *mn > c) return Grade::kDisqualifies;
      if (mn.has_value() && mx.has_value() && *mn == c && *mx == c) {
        return Grade::kQualifies;  // refinement, see header
      }
      return Grade::kAmbivalent;
    case CmpOp::kNe:
      if (mx.has_value() && *mx < c) return Grade::kQualifies;
      if (mn.has_value() && *mn > c) return Grade::kQualifies;
      if (mn.has_value() && mx.has_value() && *mn == c && *mx == c) {
        return Grade::kDisqualifies;
      }
      return Grade::kAmbivalent;
    case CmpOp::kLe:
      if (mx.has_value() && *mx <= c) return Grade::kQualifies;
      if (mn.has_value() && *mn > c) return Grade::kDisqualifies;
      return Grade::kAmbivalent;
    case CmpOp::kLt:
      if (mx.has_value() && *mx < c) return Grade::kQualifies;
      if (mn.has_value() && *mn >= c) return Grade::kDisqualifies;
      return Grade::kAmbivalent;
    case CmpOp::kGe:
      if (mn.has_value() && *mn >= c) return Grade::kQualifies;
      if (mx.has_value() && *mx < c) return Grade::kDisqualifies;
      return Grade::kAmbivalent;
    case CmpOp::kGt:
      if (mn.has_value() && *mn > c) return Grade::kQualifies;
      if (mx.has_value() && *mx <= c) return Grade::kDisqualifies;
      return Grade::kAmbivalent;
  }
  return Grade::kAmbivalent;
}

Grade GradeMinMaxTwoCols(CmpOp op, std::optional<int64_t> mn_a,
                         std::optional<int64_t> mx_a,
                         std::optional<int64_t> mn_b,
                         std::optional<int64_t> mx_b) {
  switch (op) {
    case CmpOp::kLe:
      if (mx_a.has_value() && mn_b.has_value() && *mx_a <= *mn_b) {
        return Grade::kQualifies;
      }
      if (mn_a.has_value() && mx_b.has_value() && *mn_a > *mx_b) {
        return Grade::kDisqualifies;
      }
      return Grade::kAmbivalent;
    case CmpOp::kLt:
      if (mx_a.has_value() && mn_b.has_value() && *mx_a < *mn_b) {
        return Grade::kQualifies;
      }
      if (mn_a.has_value() && mx_b.has_value() && *mn_a >= *mx_b) {
        return Grade::kDisqualifies;
      }
      return Grade::kAmbivalent;
    case CmpOp::kGe:
      return GradeMinMaxTwoCols(CmpOp::kLe, mn_b, mx_b, mn_a, mx_a);
    case CmpOp::kGt:
      return GradeMinMaxTwoCols(CmpOp::kLt, mn_b, mx_b, mn_a, mx_a);
    case CmpOp::kEq: {
      // Disjoint ranges disqualify; both ranges pinned to the same single
      // value qualify.
      if (mx_a.has_value() && mn_b.has_value() && *mx_a < *mn_b) {
        return Grade::kDisqualifies;
      }
      if (mn_a.has_value() && mx_b.has_value() && *mn_a > *mx_b) {
        return Grade::kDisqualifies;
      }
      if (mn_a.has_value() && mx_a.has_value() && mn_b.has_value() &&
          mx_b.has_value() && *mn_a == *mx_a && *mn_b == *mx_b &&
          *mn_a == *mn_b) {
        return Grade::kQualifies;
      }
      return Grade::kAmbivalent;
    }
    case CmpOp::kNe: {
      if (mx_a.has_value() && mn_b.has_value() && *mx_a < *mn_b) {
        return Grade::kQualifies;
      }
      if (mn_a.has_value() && mx_b.has_value() && *mn_a > *mx_b) {
        return Grade::kQualifies;
      }
      if (mn_a.has_value() && mx_a.has_value() && mn_b.has_value() &&
          mx_b.has_value() && *mn_a == *mx_a && *mn_b == *mx_b &&
          *mn_a == *mn_b) {
        return Grade::kDisqualifies;
      }
      return Grade::kAmbivalent;
    }
  }
  return Grade::kAmbivalent;
}

BucketGrader::BucketGrader(expr::PredicatePtr pred, const SmaSet* smas)
    : pred_(std::move(pred)), smas_(smas) {}

std::unique_ptr<BucketGrader> BucketGrader::Create(expr::PredicatePtr pred,
                                                   const SmaSet* smas) {
  std::unique_ptr<BucketGrader> grader(
      new BucketGrader(std::move(pred), smas));
  grader->root_ = grader->Bind(grader->pred_.get());
  return grader;
}

namespace {

// A min SMA's undefined entries are its largest value and a max SMA's its
// smallest, so element-wise extremes skip them for free. A missing source
// uses the 64-bit sentinel, which no widened entry of it can equal.
void BindExtreme(const SmaSet* smas, AggFunc func, size_t col,
                 const Sma** sma, std::vector<SmaFile::Cursor>* cursors,
                 int64_t* undefined) {
  *sma = smas->FindMinMax(func, col);
  *undefined = func == AggFunc::kMin ? kUndefinedMin64 : kUndefinedMax64;
  if (*sma == nullptr) return;
  *undefined = (*sma)->IdentityEntry();
  for (size_t g = 0; g < (*sma)->num_groups(); ++g) {
    cursors->push_back((*sma)->group_file(g)->NewCursor());
  }
}

// GradeMinMaxConst over a range of bucket extremes, for one operator known
// at compile time (the rule's switch folds away); an extreme equal to its
// source's `undefined` sentinel is unknown.
template <CmpOp kOp>
void GradeConstRange(const int64_t* mn, int64_t mn_undefined,
                     const int64_t* mx, int64_t mx_undefined, int64_t c,
                     size_t n, Grade* out) {
  for (size_t k = 0; k < n; ++k) {
    out[k] = GradeMinMaxConst(
        kOp, mn[k] == mn_undefined ? std::nullopt : std::optional(mn[k]),
        mx[k] == mx_undefined ? std::nullopt : std::optional(mx[k]), c);
  }
}

// Grows `v` to hold at least `n` elements (scratch is never shrunk).
template <typename T>
T* Scratch(std::vector<T>* v, size_t n) {
  if (v->size() < n) v->resize(n);
  return v->data();
}

}  // namespace

void BucketGrader::BindCount(Node* node) {
  const Predicate* pred = node->pred;
  node->count_sma = smas_->FindCountByValue(pred->column());
  if (node->count_sma == nullptr) return;
  for (size_t g = 0; g < node->count_sma->num_groups(); ++g) {
    node->count_cursors.push_back(node->count_sma->group_file(g)->NewCursor());
    // The group key is the attribute value x.
    const util::Value& x = node->count_sma->group_key(g)[0];
    bool sat;
    if (pred->kind() == Predicate::Kind::kAtomString) {
      const bool eq = x.AsString() == pred->string_constant();
      sat = pred->op() == CmpOp::kEq ? eq : !eq;
    } else {
      sat = expr::CompareInt(x.RawInt(), pred->op(), pred->constant());
    }
    node->count_sat.push_back(sat ? 1 : 0);
  }
}

std::unique_ptr<BucketGrader::Node> BucketGrader::Bind(const Predicate* pred) {
  auto node = std::make_unique<Node>();
  node->pred = pred;
  const auto bind_extremes = [&](size_t col, ExtremeSource* mn,
                                 ExtremeSource* mx) {
    BindExtreme(smas_, AggFunc::kMin, col, &mn->sma, &mn->cursors,
                &mn->undefined);
    BindExtreme(smas_, AggFunc::kMax, col, &mx->sma, &mx->cursors,
                &mx->undefined);
    return mn->sma != nullptr || mx->sma != nullptr;
  };
  switch (pred->kind()) {
    case Predicate::Kind::kTrue:
      break;
    case Predicate::Kind::kAtomConst: {
      const bool extremes = bind_extremes(pred->column(), &node->min,
                                          &node->max);
      BindCount(node.get());
      if (extremes || node->count_sma != nullptr) has_sma_support_ = true;
      break;
    }
    case Predicate::Kind::kAtomTwoCols: {
      const bool lhs = bind_extremes(pred->column(), &node->min, &node->max);
      const bool rhs = bind_extremes(pred->rhs_column(), &node->rhs_min,
                                     &node->rhs_max);
      if (lhs && rhs) has_sma_support_ = true;
      break;
    }
    case Predicate::Kind::kAtomString:
      // String equality grades through a count-by-value SMA only.
      BindCount(node.get());
      if (node->count_sma != nullptr) has_sma_support_ = true;
      break;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      node->left = Bind(pred->left());
      node->right = Bind(pred->right());
      break;
  }
  return node;
}

Status BucketGrader::ReadExtreme(ExtremeSource* src, bool is_min,
                                 uint64_t first, uint64_t end, int64_t* out) {
  const size_t n = static_cast<size_t>(end - first);
  const uint64_t covered =
      src->sma == nullptr ? first : std::min(end, src->sma->num_buckets());
  if (covered == end && src->cursors.size() == 1) {
    // Ungrouped and covered: the entries are the extremes.
    return src->cursors[0].Read(first, end, out);
  }
  std::fill(out, out + n, src->undefined);
  if (covered <= first) return Status::OK();
  const size_t m = static_cast<size_t>(covered - first);
  int64_t* entries = Scratch(&entries_, m);
  for (size_t g = 0; g < src->cursors.size(); ++g) {
    SMADB_RETURN_NOT_OK(src->cursors[g].Read(first, covered, entries));
    if (is_min) {
      for (size_t k = 0; k < m; ++k) out[k] = std::min(out[k], entries[k]);
    } else {
      for (size_t k = 0; k < m; ++k) out[k] = std::max(out[k], entries[k]);
    }
  }
  return Status::OK();
}

Status BucketGrader::ApplyCounts(Node* node, uint64_t first, uint64_t end,
                                 Grade* out) {
  if (node->count_sma == nullptr) return Status::OK();
  const uint64_t covered = std::min(end, node->count_sma->num_buckets());
  if (covered <= first) return Status::OK();
  const size_t m = static_cast<size_t>(covered - first);
  // §3.1 count rules, intended semantics: per bucket, is any value present,
  // does every present value satisfy the atom, does none?
  uint8_t* any = Scratch(&any_, m);
  uint8_t* all = Scratch(&all_, m);
  uint8_t* none = Scratch(&none_, m);
  std::fill(any, any + m, 0);
  std::fill(all, all + m, 1);
  std::fill(none, none + m, 1);
  int64_t* counts = Scratch(&entries_, m);
  for (size_t g = 0; g < node->count_cursors.size(); ++g) {
    SMADB_RETURN_NOT_OK(node->count_cursors[g].Read(first, covered, counts));
    // A present value clears `none` if it satisfies the atom, else `all`.
    uint8_t* cleared = node->count_sat[g] ? none : all;
    for (size_t k = 0; k < m; ++k) {
      const uint8_t present = counts[k] > 0 ? 1 : 0;
      any[k] |= present;
      cleared[k] &= static_cast<uint8_t>(present ^ 1);
    }
  }
  for (size_t k = 0; k < m; ++k) {
    if (out[k] != Grade::kAmbivalent || !any[k]) continue;
    if (all[k]) {
      out[k] = Grade::kQualifies;
    } else if (none[k]) {
      out[k] = Grade::kDisqualifies;
    }
  }
  return Status::OK();
}

Status BucketGrader::GradeAtom(Node* node, uint64_t first, uint64_t end,
                               Grade* out) {
  const Predicate* pred = node->pred;
  const size_t n = static_cast<size_t>(end - first);

  if (pred->kind() == Predicate::Kind::kAtomString) {
    // §3.1 count rules applied to the string domain.
    std::fill(out, out + n, Grade::kAmbivalent);
    return ApplyCounts(node, first, end, out);
  }

  int64_t* mn = Scratch(&mn_, n);
  int64_t* mx = Scratch(&mx_, n);
  SMADB_RETURN_NOT_OK(ReadExtreme(&node->min, /*is_min=*/true, first, end, mn));
  SMADB_RETURN_NOT_OK(ReadExtreme(&node->max, /*is_min=*/false, first, end,
                                  mx));
  if (pred->kind() == Predicate::Kind::kAtomConst) {
    const int64_t mn_undefined = node->min.undefined;
    const int64_t mx_undefined = node->max.undefined;
    const int64_t c = pred->constant();
    switch (pred->op()) {
      case CmpOp::kEq:
        GradeConstRange<CmpOp::kEq>(mn, mn_undefined, mx, mx_undefined, c, n,
                                    out);
        break;
      case CmpOp::kNe:
        GradeConstRange<CmpOp::kNe>(mn, mn_undefined, mx, mx_undefined, c, n,
                                    out);
        break;
      case CmpOp::kLt:
        GradeConstRange<CmpOp::kLt>(mn, mn_undefined, mx, mx_undefined, c, n,
                                    out);
        break;
      case CmpOp::kLe:
        GradeConstRange<CmpOp::kLe>(mn, mn_undefined, mx, mx_undefined, c, n,
                                    out);
        break;
      case CmpOp::kGt:
        GradeConstRange<CmpOp::kGt>(mn, mn_undefined, mx, mx_undefined, c, n,
                                    out);
        break;
      case CmpOp::kGe:
        GradeConstRange<CmpOp::kGe>(mn, mn_undefined, mx, mx_undefined, c, n,
                                    out);
        break;
    }
    // Count-by-value source for what min/max left ambivalent.
    return ApplyCounts(node, first, end, out);
  }

  const auto known = [](const ExtremeSource& src, int64_t v) {
    return v == src.undefined ? std::nullopt : std::optional<int64_t>(v);
  };
  int64_t* rhs_mn = Scratch(&rhs_mn_, n);
  int64_t* rhs_mx = Scratch(&rhs_mx_, n);
  SMADB_RETURN_NOT_OK(
      ReadExtreme(&node->rhs_min, /*is_min=*/true, first, end, rhs_mn));
  SMADB_RETURN_NOT_OK(
      ReadExtreme(&node->rhs_max, /*is_min=*/false, first, end, rhs_mx));
  for (size_t k = 0; k < n; ++k) {
    out[k] = GradeMinMaxTwoCols(
        pred->op(), known(node->min, mn[k]), known(node->max, mx[k]),
        known(node->rhs_min, rhs_mn[k]), known(node->rhs_max, rhs_mx[k]));
  }
  return Status::OK();
}

Status BucketGrader::GradeNode(Node* node, uint64_t first, uint64_t end,
                               Grade* out) {
  const size_t n = static_cast<size_t>(end - first);
  switch (node->pred->kind()) {
    case Predicate::Kind::kTrue:
      std::fill(out, out + n, Grade::kQualifies);
      return Status::OK();
    case Predicate::Kind::kAtomConst:
    case Predicate::Kind::kAtomTwoCols:
    case Predicate::Kind::kAtomString:
      return GradeAtom(node, first, end, out);
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      const bool is_and = node->pred->kind() == Predicate::Kind::kAnd;
      SMADB_RETURN_NOT_OK(GradeNode(node->left.get(), first, end, out));
      // Short-circuit: a range the left side settles needs no right side.
      const Grade settles = is_and ? Grade::kDisqualifies : Grade::kQualifies;
      if (std::all_of(out, out + n, [&](Grade g) { return g == settles; })) {
        return Status::OK();
      }
      Grade* right = Scratch(&node->scratch, n);
      SMADB_RETURN_NOT_OK(GradeNode(node->right.get(), first, end, right));
      for (size_t k = 0; k < n; ++k) {
        out[k] = is_and ? CombineAnd(out[k], right[k])
                        : CombineOr(out[k], right[k]);
      }
      return Status::OK();
    }
  }
  return Status::OK();
}

Status BucketGrader::GradeRange(uint64_t first, uint64_t end, Grade* out) {
  if (end <= first) return Status::OK();
  return GradeNode(root_.get(), first, end, out);
}

Result<Grade> BucketGrader::GradeBucket(uint64_t b) {
  Grade g = Grade::kAmbivalent;
  SMADB_RETURN_NOT_OK(GradeRange(b, b + 1, &g));
  return g;
}

}  // namespace smadb::sma
