#include "expr/parser.h"

#include <cctype>
#include <charconv>

#include "util/string_util.h"

namespace smadb::expr {

using internal::Token;
using internal::TokKind;
using storage::Schema;
using util::Result;
using util::Status;
using util::Value;

namespace internal {

namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

char ToLower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view text) {
  std::vector<Token> out;
  size_t i = 0;
  const auto peek = [&](size_t off = 0) -> char {
    return i + off < text.size() ? text[i + off] : '\0';
  };
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    Token tok;
    tok.pos = i;
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      // Number: integer or two-digit decimal, both checked against int64.
      size_t j = i;
      while (std::isdigit(static_cast<unsigned char>(peek(j - i))) != 0) ++j;
      bool fits = std::from_chars(text.data() + i, text.data() + j,
                                  tok.value).ec == std::errc();
      tok.kind = TokKind::kInt;
      if (j < text.size() && text[j] == '.') {
        size_t k = j + 1;
        while (k < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[k])) != 0) {
          ++k;
        }
        const std::string_view frac = text.substr(j + 1, k - j - 1);
        if (frac.empty() || frac.size() > 2) {
          return Status::InvalidArgument(
              "decimal literals carry at most two fractional digits: '" +
              std::string(text.substr(i, k - i)) + "'");
        }
        const int64_t cents =
            (frac[0] - '0') * 10 + (frac.size() == 2 ? frac[1] - '0' : 0);
        fits = fits && !__builtin_mul_overflow(tok.value, 100, &tok.value) &&
               !__builtin_add_overflow(tok.value, cents, &tok.value);
        tok.kind = TokKind::kDecimal;
        j = k;
      }
      if (!fits) {
        return Status::InvalidArgument("numeric literal '" +
                                       std::string(text.substr(i, j - i)) +
                                       "' overflows int64");
      }
      i = j;
      out.push_back(std::move(tok));
      continue;
    }
    if (IsIdentChar(c)) {
      size_t j = i;
      std::string ident;
      while (j < text.size() && IsIdentChar(text[j])) {
        ident += ToLower(text[j]);
        ++j;
      }
      i = j;
      // `date '....'` — the keyword is folded into the literal.
      if (ident == "date") {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])) != 0) {
          ++i;
        }
        if (i >= text.size() || text[i] != '\'') {
          return Status::InvalidArgument(
              "expected quoted literal after 'date'");
        }
        // Fall through to the quoted-literal case below; the kDate kind
        // records that a date literal is mandatory here.
        tok.kind = TokKind::kDate;
      } else {
        tok.kind = TokKind::kIdent;
        tok.text = std::move(ident);
        out.push_back(std::move(tok));
        continue;
      }
    }
    if (peek() == '\'') {
      const size_t close = text.find('\'', i + 1);
      if (close == std::string_view::npos) {
        return Status::InvalidArgument("unterminated quoted literal");
      }
      const std::string_view body = text.substr(i + 1, close - i - 1);
      const bool forced_date = tok.kind == TokKind::kDate;
      auto d = util::Date::Parse(body);
      if (d.ok()) {
        tok.kind = TokKind::kDate;
        tok.value = d->days();
      } else if (forced_date) {
        return d.status();  // `date '...'` with a malformed literal
      } else {
        tok.kind = TokKind::kString;
        tok.text = std::string(body);
      }
      out.push_back(std::move(tok));
      i = close + 1;
      continue;
    }
    switch (c) {
      case '(':
        tok.kind = TokKind::kLParen;
        ++i;
        break;
      case ')':
        tok.kind = TokKind::kRParen;
        ++i;
        break;
      case ',':
        tok.kind = TokKind::kComma;
        ++i;
        break;
      case '*':
        tok.kind = TokKind::kStar;
        ++i;
        break;
      case '+':
        tok.kind = TokKind::kPlus;
        ++i;
        break;
      case '-':
        tok.kind = TokKind::kMinus;
        ++i;
        break;
      case '=':
        tok.kind = TokKind::kCmp;
        tok.text = "=";
        ++i;
        break;
      case '!':
        if (peek(1) != '=') {
          return Status::InvalidArgument("stray '!' (did you mean '!=') ");
        }
        tok.kind = TokKind::kCmp;
        tok.text = "!=";
        i += 2;
        break;
      case '<':
        tok.kind = TokKind::kCmp;
        if (peek(1) == '=') {
          tok.text = "<=";
          i += 2;
        } else if (peek(1) == '>') {
          tok.text = "!=";
          i += 2;
        } else {
          tok.text = "<";
          ++i;
        }
        break;
      case '>':
        tok.kind = TokKind::kCmp;
        if (peek(1) == '=') {
          tok.text = ">=";
          i += 2;
        } else {
          tok.text = ">";
          ++i;
        }
        break;
      default:
        return Status::InvalidArgument(
            util::Format("unexpected character '%c' in '%s'", c,
                         std::string(text).c_str()));
    }
    out.push_back(std::move(tok));
  }
  out.emplace_back().pos = text.size();  // kEnd sentinel
  return out;
}

std::string TokensToText(const std::vector<Token>& tokens, size_t begin,
                         size_t end) {
  std::string out;
  for (size_t i = begin; i < end && i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (!out.empty()) out += ' ';
    switch (t.kind) {
      case TokKind::kIdent:
        out += t.text;
        break;
      case TokKind::kInt:
        out += std::to_string(t.value);
        break;
      case TokKind::kDecimal:
        out += util::Decimal(t.value).ToString();
        break;
      case TokKind::kDate:
        out += "'" + util::Date(static_cast<int32_t>(t.value)).ToString() +
               "'";
        break;
      case TokKind::kString:
        out += "'" + t.text + "'";
        break;
      case TokKind::kLParen:
        out += '(';
        break;
      case TokKind::kRParen:
        out += ')';
        break;
      case TokKind::kComma:
        out += ',';
        break;
      case TokKind::kStar:
        out += '*';
        break;
      case TokKind::kPlus:
        out += '+';
        break;
      case TokKind::kMinus:
        out += '-';
        break;
      case TokKind::kCmp:
        out += t.text;
        break;
      case TokKind::kEnd:
        break;
    }
  }
  return out;
}

}  // namespace internal

namespace {

// Recursive-descent parser over the token stream.
class Parser {
 public:
  Parser(const Schema* schema, std::vector<Token> tokens)
      : schema_(schema), tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[pos_]; }
  Token Take() { return tokens_[pos_++]; }
  bool AtEnd() const { return Peek().kind == TokKind::kEnd; }

  bool TakeIdent(std::string_view kw) {
    if (Peek().kind == TokKind::kIdent && Peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }

  // expr := term (('+'|'-') term)*
  Result<ExprPtr> ParseExpression() {
    SMADB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseTerm());
    while (Peek().kind == TokKind::kPlus || Peek().kind == TokKind::kMinus) {
      const ArithOp op =
          Take().kind == TokKind::kPlus ? ArithOp::kAdd : ArithOp::kSub;
      SMADB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseTerm());
      SMADB_ASSIGN_OR_RETURN(lhs, Arith(op, std::move(lhs), std::move(rhs)));
    }
    return lhs;
  }

  // term := factor ('*' factor)*
  Result<ExprPtr> ParseTerm() {
    SMADB_ASSIGN_OR_RETURN(ExprPtr lhs, ParseFactor());
    while (Peek().kind == TokKind::kStar) {
      Take();
      SMADB_ASSIGN_OR_RETURN(ExprPtr rhs, ParseFactor());
      SMADB_ASSIGN_OR_RETURN(
          lhs, Arith(ArithOp::kMul, std::move(lhs), std::move(rhs)));
    }
    return lhs;
  }

  // factor := ['-'] (literal | column | '(' expr ')')
  Result<ExprPtr> ParseFactor() {
    if (Peek().kind == TokKind::kMinus) {
      Take();
      SMADB_ASSIGN_OR_RETURN(ExprPtr inner, ParseFactor());
      // 0 - inner (or 0.00 - inner for decimals) keeps types consistent.
      const bool decimal = inner->type() == util::TypeId::kDecimal;
      return Arith(ArithOp::kSub,
                   Literal(decimal ? Value::MakeDecimal(util::Decimal(0))
                                   : Value::Int64(0)),
                   std::move(inner));
    }
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokKind::kInt: {
        const int64_t v = Take().value;
        return Literal(Value::Int64(v));
      }
      case TokKind::kDecimal: {
        const int64_t v = Take().value;
        return Literal(Value::MakeDecimal(util::Decimal(v)));
      }
      case TokKind::kDate: {
        const int64_t v = Take().value;
        return Literal(Value::MakeDate(util::Date(static_cast<int32_t>(v))));
      }
      case TokKind::kIdent: {
        const std::string name = Take().text;
        return Column(schema_, name);
      }
      case TokKind::kLParen: {
        Take();
        SMADB_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpression());
        if (Peek().kind != TokKind::kRParen) {
          return Status::InvalidArgument("expected ')'");
        }
        Take();
        return inner;
      }
      default:
        return Status::InvalidArgument("expected literal, column, or '('");
    }
  }

  // pred := conj ('or' conj)*
  Result<PredicatePtr> ParseOr() {
    SMADB_ASSIGN_OR_RETURN(PredicatePtr lhs, ParseAnd());
    while (TakeIdent("or")) {
      SMADB_ASSIGN_OR_RETURN(PredicatePtr rhs, ParseAnd());
      lhs = Predicate::Or(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  // conj := atom ('and' atom)*
  Result<PredicatePtr> ParseAnd() {
    SMADB_ASSIGN_OR_RETURN(PredicatePtr lhs, ParseAtom());
    while (TakeIdent("and")) {
      SMADB_ASSIGN_OR_RETURN(PredicatePtr rhs, ParseAtom());
      lhs = Predicate::And(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  // atom := 'true' | '(' pred ')' | operand cmp operand
  Result<PredicatePtr> ParseAtom() {
    if (TakeIdent("true")) return Predicate::True();
    if (Peek().kind == TokKind::kLParen) {
      // Could be a parenthesized predicate; try it and fall back to an
      // expression operand on failure is ambiguous — predicates inside
      // parens always contain a comparison, so scan ahead for one before
      // the matching close.
      size_t depth = 0;
      bool has_cmp = false;
      for (size_t j = pos_; j < tokens_.size(); ++j) {
        if (tokens_[j].kind == TokKind::kLParen) ++depth;
        if (tokens_[j].kind == TokKind::kRParen) {
          if (--depth == 0) break;
        }
        if (depth >= 1 && tokens_[j].kind == TokKind::kCmp) {
          has_cmp = true;
          break;
        }
      }
      if (has_cmp) {
        Take();  // '('
        SMADB_ASSIGN_OR_RETURN(PredicatePtr inner, ParseOr());
        if (Peek().kind != TokKind::kRParen) {
          return Status::InvalidArgument("expected ')' after predicate");
        }
        Take();
        return inner;
      }
    }
    // operand cmp operand — operands are a column name or a literal
    // (general expressions on either side are outside the paper's atom
    // forms A θ c / A θ B).
    SMADB_ASSIGN_OR_RETURN(Operand lhs, ParseOperand());
    if (Peek().kind != TokKind::kCmp) {
      return Status::InvalidArgument("expected comparison operator");
    }
    const Token op_tok = Take();
    const std::string& op_text = op_tok.text;
    CmpOp op;
    if (op_text == "=") {
      op = CmpOp::kEq;
    } else if (op_text == "!=") {
      op = CmpOp::kNe;
    } else if (op_text == "<") {
      op = CmpOp::kLt;
    } else if (op_text == "<=") {
      op = CmpOp::kLe;
    } else if (op_text == ">") {
      op = CmpOp::kGt;
    } else {
      op = CmpOp::kGe;
    }
    SMADB_ASSIGN_OR_RETURN(Operand rhs, ParseOperand());

    if (lhs.is_column && rhs.is_column) {
      return Predicate::AtomTwoCols(schema_, lhs.column, op, rhs.column);
    }
    if (lhs.is_string || rhs.is_string) {
      // String equality: column on one side, quoted literal on the other.
      const Operand& col_side = lhs.is_column ? lhs : rhs;
      const Operand& lit_side = lhs.is_string ? lhs : rhs;
      if (!col_side.is_column || !lit_side.is_string) {
        return Status::InvalidArgument(
            "string comparison needs a column and a quoted literal");
      }
      return Predicate::AtomString(schema_, col_side.column, op,
                                   lit_side.text);
    }
    if (lhs.is_column) {
      return Predicate::AtomConst(schema_, lhs.column, op, rhs.literal);
    }
    if (rhs.is_column) {
      // c op A  ==  A op' c with the comparison mirrored.
      CmpOp mirrored;
      switch (op) {
        case CmpOp::kLt:
          mirrored = CmpOp::kGt;
          break;
        case CmpOp::kLe:
          mirrored = CmpOp::kGe;
          break;
        case CmpOp::kGt:
          mirrored = CmpOp::kLt;
          break;
        case CmpOp::kGe:
          mirrored = CmpOp::kLe;
          break;
        default:
          mirrored = op;
          break;
      }
      return Predicate::AtomConst(schema_, rhs.column, mirrored, lhs.literal);
    }
    return Status::InvalidArgument(
        "comparison needs at least one column operand");
  }

 private:
  struct Operand {
    bool is_column = false;
    bool is_string = false;
    std::string column;
    std::string text;  // string literal body
    Value literal;
  };

  Result<Operand> ParseOperand() {
    Operand out;
    // Unary minus on numeric literals.
    if (Peek().kind == TokKind::kMinus) {
      Take();
      const Token& num = Peek();
      if (num.kind == TokKind::kInt) {
        out.literal = Value::Int64(-Take().value);
        return out;
      }
      if (num.kind == TokKind::kDecimal) {
        out.literal = Value::MakeDecimal(util::Decimal(-Take().value));
        return out;
      }
      return Status::InvalidArgument("'-' must precede a numeric literal");
    }
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokKind::kIdent:
        out.is_column = true;
        out.column = Take().text;
        return out;
      case TokKind::kString:
        out.is_string = true;
        out.text = Take().text;
        return out;
      case TokKind::kInt:
        out.literal = Value::Int64(Take().value);
        return out;
      case TokKind::kDecimal:
        out.literal = Value::MakeDecimal(util::Decimal(Take().value));
        return out;
      case TokKind::kDate:
        out.literal =
            Value::MakeDate(util::Date(static_cast<int32_t>(Take().value)));
        return out;
      default:
        return Status::InvalidArgument("expected column or literal");
    }
  }

  const Schema* schema_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

// Int literals compared against decimal/date columns: AtomConst validates
// types, so promote plain ints to the column's family first.
Result<PredicatePtr> FixupAndParsePredicate(const Schema* schema,
                                            std::vector<Token> tokens) {
  // Promote `col <= 24` against decimal columns: look for
  // ident cmp int / int cmp ident patterns and retype the int.
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i + 1].kind != TokKind::kCmp) continue;
    const Token* ident = nullptr;
    Token* num = nullptr;
    if (tokens[i].kind == TokKind::kIdent &&
        tokens[i + 2].kind == TokKind::kInt) {
      ident = &tokens[i];
      num = &tokens[i + 2];
    } else if (tokens[i].kind == TokKind::kIdent && i + 3 < tokens.size() &&
               tokens[i + 2].kind == TokKind::kMinus &&
               tokens[i + 3].kind == TokKind::kInt) {
      // col cmp -int
      ident = &tokens[i];
      num = &tokens[i + 3];
    } else if (tokens[i].kind == TokKind::kInt &&
               tokens[i + 2].kind == TokKind::kIdent) {
      ident = &tokens[i + 2];
      num = &tokens[i];
    } else {
      continue;
    }
    auto idx = schema->FieldIndex(ident->text);
    if (!idx.ok()) continue;
    const util::TypeId t = schema->field(*idx).type;
    if (t == util::TypeId::kDecimal) {
      num->kind = TokKind::kDecimal;
      num->value *= 100;
    } else if (t == util::TypeId::kInt32) {
      // AtomConst accepts int64 literals for int32 columns already.
    }
  }
  Parser parser(schema, std::move(tokens));
  SMADB_ASSIGN_OR_RETURN(PredicatePtr pred, parser.ParseOr());
  if (!parser.AtEnd()) {
    return Status::InvalidArgument("trailing tokens after predicate");
  }
  return pred;
}

}  // namespace

Result<ExprPtr> ParseExpr(const Schema* schema, std::string_view text) {
  SMADB_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                         internal::Tokenize(text));
  Parser parser(schema, std::move(tokens));
  SMADB_ASSIGN_OR_RETURN(ExprPtr e, parser.ParseExpression());
  if (!parser.AtEnd()) {
    return Status::InvalidArgument("trailing tokens after expression");
  }
  return e;
}

Result<PredicatePtr> ParsePredicate(const Schema* schema,
                                    std::string_view text) {
  SMADB_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                         internal::Tokenize(text));
  return FixupAndParsePredicate(schema, std::move(tokens));
}

}  // namespace smadb::expr
