// Tests for the expression/predicate parser and the `define sma` language.

#include <gtest/gtest.h>

#include "db/database.h"
#include "expr/parser.h"
#include "sma/parser.h"
#include "tests/test_util.h"

namespace smadb {
namespace {

using expr::ParseExpr;
using expr::ParsePredicate;
using sma::AggFunc;
using sma::ParseSmaDefinition;
using storage::Schema;
using storage::TupleBuffer;
using testing::ExpectOk;
using testing::SyntheticSchema;
using testing::Unwrap;
using util::Date;
using util::Decimal;

struct ParserTest : ::testing::Test {
  ParserTest() : schema(SyntheticSchema()), tuple(&schema) {
    tuple.SetInt64(0, 7);                 // k
    tuple.SetDate(1, Date(100));          // d
    tuple.SetDecimal(2, Decimal(250));    // v = 2.50
    tuple.SetString(3, "B");
    tuple.SetString(4, "RAIL");
  }

  Schema schema;
  TupleBuffer tuple;
};

// ------------------------------------------------------------ expressions --

TEST_F(ParserTest, ParsesColumn) {
  auto e = Unwrap(ParseExpr(&schema, "k"));
  EXPECT_EQ(e->EvalInt(tuple.AsRef()), 7);
}

TEST_F(ParserTest, ParsesLiterals) {
  EXPECT_EQ(Unwrap(ParseExpr(&schema, "42"))->EvalInt(tuple.AsRef()), 42);
  // Decimal literal: two-digit fixed point.
  auto dec = Unwrap(ParseExpr(&schema, "0.06"));
  EXPECT_EQ(dec->type(), util::TypeId::kDecimal);
  EXPECT_EQ(dec->EvalInt(tuple.AsRef()), 6);
  EXPECT_EQ(Unwrap(ParseExpr(&schema, "1.5"))->EvalInt(tuple.AsRef()), 150);
}

TEST_F(ParserTest, RejectsLiteralsThatOverflowInt64) {
  EXPECT_EQ(Unwrap(ParseExpr(&schema, "9223372036854775807"))
                ->EvalInt(tuple.AsRef()),
            INT64_MAX);
  // One past the largest int64, 2^64 + 1 (which used to wrap to 1), and a
  // decimal whose cents pass int64.
  for (const char* text :
       {"9223372036854775808", "18446744073709551617",
        "92233720368547758.08"}) {
    const util::Status st = ParseExpr(&schema, text).status();
    EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument) << text;
    EXPECT_NE(st.message().find(text), std::string::npos) << st.ToString();
  }
}

TEST_F(ParserTest, ParsesArithmeticWithPrecedence) {
  // 1 + 2 * 3 = 7 (multiplication binds tighter)
  EXPECT_EQ(Unwrap(ParseExpr(&schema, "1 + 2 * 3"))->EvalInt(tuple.AsRef()),
            7);
  // (1 + 2) * 3 = 9
  EXPECT_EQ(
      Unwrap(ParseExpr(&schema, "(1 + 2) * 3"))->EvalInt(tuple.AsRef()), 9);
  // Left associativity: 10 - 2 - 3 = 5
  EXPECT_EQ(Unwrap(ParseExpr(&schema, "10 - 2 - 3"))->EvalInt(tuple.AsRef()),
            5);
}

TEST_F(ParserTest, ParsesThePaperExpression) {
  // The Q1 money expression, exactly as the paper writes it.
  auto e = Unwrap(ParseExpr(&schema, "v * (1.00 - v) * (1.00 + v)"));
  // 2.50 * (-1.50) * 3.50 = -13.13 (with per-step cent rounding: -3.75
  // then -13.13).
  EXPECT_EQ(e->EvalInt(tuple.AsRef()),
            ((Decimal(250) * (Decimal(100) - Decimal(250))) *
             (Decimal(100) + Decimal(250)))
                .cents());
  // Canonical form matches the builder API's ToString.
  EXPECT_EQ(e->ToString(), "((v * (1.00 - v)) * (1.00 + v))");
}

TEST_F(ParserTest, NegativeLiterals) {
  EXPECT_EQ(Unwrap(ParseExpr(&schema, "-5"))->EvalInt(tuple.AsRef()), -5);
  EXPECT_EQ(Unwrap(ParseExpr(&schema, "-0.25"))->EvalInt(tuple.AsRef()),
            -25);
  EXPECT_EQ(Unwrap(ParseExpr(&schema, "3 - -2"))->EvalInt(tuple.AsRef()), 5);
  EXPECT_EQ(Unwrap(ParseExpr(&schema, "-k"))->EvalInt(tuple.AsRef()), -7);
  // Predicates with negative constants (k == 7 in the fixture).
  EXPECT_TRUE(
      Unwrap(ParsePredicate(&schema, "k > -1"))->Eval(tuple.AsRef()));
  EXPECT_TRUE(
      Unwrap(ParsePredicate(&schema, "v >= -10.26"))->Eval(tuple.AsRef()));
  // Int literal promoted against decimal column even when negative.
  EXPECT_TRUE(
      Unwrap(ParsePredicate(&schema, "v > -3"))->Eval(tuple.AsRef()));
}

TEST_F(ParserTest, CaseInsensitiveColumns) {
  EXPECT_EQ(Unwrap(ParseExpr(&schema, "K"))->EvalInt(tuple.AsRef()), 7);
}

TEST_F(ParserTest, ExprErrors) {
  EXPECT_FALSE(ParseExpr(&schema, "").ok());
  EXPECT_FALSE(ParseExpr(&schema, "nosuchcol").ok());
  EXPECT_FALSE(ParseExpr(&schema, "1 +").ok());
  EXPECT_FALSE(ParseExpr(&schema, "(1 + 2").ok());
  EXPECT_FALSE(ParseExpr(&schema, "1 2").ok());         // trailing token
  EXPECT_FALSE(ParseExpr(&schema, "0.123").ok());        // 3 fraction digits
  EXPECT_FALSE(ParseExpr(&schema, "1 ? 2").ok());        // bad char
  EXPECT_FALSE(ParseExpr(&schema, "tag + 1").ok());      // string arithmetic
}

// ------------------------------------------------------------- predicates --

TEST_F(ParserTest, ParsesDatePredicate) {
  auto p = Unwrap(ParsePredicate(&schema, "d <= date '1970-04-11'"));
  EXPECT_TRUE(p->Eval(tuple.AsRef()));  // day 100 == 1970-04-11
  auto q = Unwrap(ParsePredicate(&schema, "d < '1970-04-11'"));  // bare quote
  EXPECT_FALSE(q->Eval(tuple.AsRef()));
}

TEST_F(ParserTest, ParsesAllComparisons) {
  EXPECT_TRUE(Unwrap(ParsePredicate(&schema, "k = 7"))->Eval(tuple.AsRef()));
  EXPECT_TRUE(Unwrap(ParsePredicate(&schema, "k != 8"))->Eval(tuple.AsRef()));
  EXPECT_TRUE(Unwrap(ParsePredicate(&schema, "k <> 8"))->Eval(tuple.AsRef()));
  EXPECT_TRUE(Unwrap(ParsePredicate(&schema, "k < 8"))->Eval(tuple.AsRef()));
  EXPECT_TRUE(Unwrap(ParsePredicate(&schema, "k <= 7"))->Eval(tuple.AsRef()));
  EXPECT_TRUE(Unwrap(ParsePredicate(&schema, "k > 6"))->Eval(tuple.AsRef()));
  EXPECT_TRUE(Unwrap(ParsePredicate(&schema, "k >= 7"))->Eval(tuple.AsRef()));
}

TEST_F(ParserTest, MirrorsLiteralOnLeft) {
  // 8 > k  ==  k < 8.
  EXPECT_TRUE(Unwrap(ParsePredicate(&schema, "8 > k"))->Eval(tuple.AsRef()));
  EXPECT_FALSE(Unwrap(ParsePredicate(&schema, "7 > k"))->Eval(tuple.AsRef()));
  EXPECT_TRUE(Unwrap(ParsePredicate(&schema, "7 = k"))->Eval(tuple.AsRef()));
}

TEST_F(ParserTest, PromotesIntLiteralsForDecimalColumns) {
  // The Q6 idiom "l_quantity < 24" with a decimal quantity column.
  auto p = Unwrap(ParsePredicate(&schema, "v < 24"));
  EXPECT_TRUE(p->Eval(tuple.AsRef()));  // 2.50 < 24.00
  auto q = Unwrap(ParsePredicate(&schema, "v < 2"));
  EXPECT_FALSE(q->Eval(tuple.AsRef()));
}

TEST_F(ParserTest, BooleanStructureAndParens) {
  auto p = Unwrap(ParsePredicate(
      &schema, "k >= 5 and k <= 9 or d > '1999-01-01'"));
  EXPECT_TRUE(p->Eval(tuple.AsRef()));
  // Parentheses change grouping: and binds tighter than or by default.
  auto q = Unwrap(ParsePredicate(
      &schema, "k >= 5 and (k > 100 or d <= '1970-04-11')"));
  EXPECT_TRUE(q->Eval(tuple.AsRef()));
  auto r = Unwrap(ParsePredicate(&schema, "(k > 100 or k < 3) and d > '1970-01-01'"));
  EXPECT_FALSE(r->Eval(tuple.AsRef()));
}

TEST_F(ParserTest, TwoColumnAtom) {
  Schema two({storage::Field::Int64("a"), storage::Field::Int64("b")});
  TupleBuffer t(&two);
  t.SetInt64(0, 3);
  t.SetInt64(1, 5);
  EXPECT_TRUE(Unwrap(ParsePredicate(&two, "a <= b"))->Eval(t.AsRef()));
  EXPECT_FALSE(Unwrap(ParsePredicate(&two, "a = b"))->Eval(t.AsRef()));
}

TEST_F(ParserTest, TruePredicate) {
  EXPECT_TRUE(Unwrap(ParsePredicate(&schema, "true"))->Eval(tuple.AsRef()));
}

TEST_F(ParserTest, PredicateErrors) {
  EXPECT_FALSE(ParsePredicate(&schema, "k").ok());
  EXPECT_FALSE(ParsePredicate(&schema, "k = ").ok());
  EXPECT_FALSE(ParsePredicate(&schema, "1 = 2").ok());  // no column
  EXPECT_FALSE(ParsePredicate(&schema, "k = 1 k = 2").ok());
  EXPECT_FALSE(ParsePredicate(&schema, "tag = 1").ok());  // string column
  EXPECT_FALSE(ParsePredicate(&schema, "d <= '1998-99-99'").ok());
}

// --------------------------------------------------------- SMA definitions --

TEST_F(ParserTest, ParsesUngroupedMin) {
  auto def = Unwrap(ParseSmaDefinition(
      &schema, "define sma min select min(d) from t"));
  EXPECT_EQ(def.table, "t");
  EXPECT_EQ(def.spec.name, "min");
  EXPECT_EQ(def.spec.func, AggFunc::kMin);
  EXPECT_EQ(def.spec.arg->ToString(), "d");
  EXPECT_TRUE(def.spec.group_by.empty());
}

TEST_F(ParserTest, ParsesGroupedSumOfExpression) {
  auto def = Unwrap(ParseSmaDefinition(
      &schema,
      "define sma extdis select sum(v * (1.00 - v)) from t "
      "group by grp, tag"));
  EXPECT_EQ(def.spec.func, AggFunc::kSum);
  EXPECT_EQ(def.spec.arg->ToString(), "(v * (1.00 - v))");
  EXPECT_EQ(def.spec.group_by, (std::vector<size_t>{3, 4}));
}

TEST_F(ParserTest, ParsesCountStar) {
  auto def = Unwrap(ParseSmaDefinition(
      &schema, "define sma count select count(*) from t group by grp"));
  EXPECT_EQ(def.spec.func, AggFunc::kCount);
  EXPECT_EQ(def.spec.arg, nullptr);
  EXPECT_EQ(def.spec.group_by, (std::vector<size_t>{3}));
}

TEST_F(ParserTest, MultilineDefinitionLikeThePaper) {
  auto def = Unwrap(ParseSmaDefinition(&schema,
                                       "define sma qty\n"
                                       "select   sum(v)\n"
                                       "from     t\n"
                                       "group by grp, tag\n"));
  EXPECT_EQ(def.spec.name, "qty");
}

TEST_F(ParserTest, RejectsPaperRestrictions) {
  // Joins: "we allow only for a single entry within the from clause".
  const util::Status join =
      ParseSmaDefinition(&schema, "define sma x select min(d) from t, s")
          .status();
  EXPECT_EQ(join.code(), util::StatusCode::kNotSupported);
  EXPECT_EQ(join.message(),
            "joins are not allowed in SMA definitions: a SMA summarizes one "
            "table (§2.1)");
  // Multiple select entries: "the select clause may contain only a single
  // entry".
  EXPECT_EQ(ParseSmaDefinition(&schema,
                               "define sma x select sum(v, k) from t")
                .status()
                .code(),
            util::StatusCode::kNotSupported);
  // Order specification is not allowed.
  EXPECT_EQ(ParseSmaDefinition(
                &schema, "define sma x select min(d) from t order by d")
                .status()
                .code(),
            util::StatusCode::kNotSupported);
  // avg is not a SMA aggregate (it is derived at query time).
  EXPECT_FALSE(
      ParseSmaDefinition(&schema, "define sma x select avg(v) from t").ok());
}

TEST_F(ParserTest, DefinitionErrors) {
  EXPECT_FALSE(ParseSmaDefinition(&schema, "").ok());
  EXPECT_FALSE(ParseSmaDefinition(&schema, "define sma").ok());
  EXPECT_FALSE(
      ParseSmaDefinition(&schema, "define sma x select min(d)").ok());
  EXPECT_FALSE(ParseSmaDefinition(
                   &schema, "define sma x select min(zz) from t")
                   .ok());
  EXPECT_FALSE(ParseSmaDefinition(
                   &schema, "define sma x select min(d) from t group by zz")
                   .ok());
  EXPECT_FALSE(ParseSmaDefinition(
                   &schema, "define sma x select count(d) from t")
                   .ok());
}

// ------------------------------------------- define sma through Database --

TEST(DefineSmaTest, BuildsAndRegistersThroughDatabase) {
  db::Database database;
  storage::Table* t =
      Unwrap(database.CreateTable("t", SyntheticSchema()));
  TupleBuffer row(&t->schema());
  for (int64_t i = 0; i < 2000; ++i) {
    row.SetInt64(0, i);
    row.SetDate(1, Date(static_cast<int32_t>(i / 8)));
    row.SetDecimal(2, Decimal(i * 3));
    row.SetString(3, i % 3 == 0 ? "A" : "B");
    row.SetString(4, "MAIL");
    ExpectOk(database.Insert("t", row));
  }
  ExpectOk(database.Execute("define sma min select min(d) from t"));
  ExpectOk(database.Execute("define sma max select max(d) from t"));
  ExpectOk(database.Execute(
      "define sma sums select sum(v * (1.00 - v)) from t group by grp"));
  sma::SmaSet* smas = Unwrap(database.Smas("t"));
  EXPECT_EQ(smas->size(), 3u);
  EXPECT_NE(smas->FindMinMax(sma::AggFunc::kMin, 1), nullptr);

  // Textually-defined SMA matches a textually-parsed query expression.
  const sma::Sma* sums = Unwrap(smas->Find("sums"));
  EXPECT_EQ(sums->spec().Signature(t->schema()),
            "sum((v * (1.00 - v))) group by grp");

  // Unknown table.
  EXPECT_FALSE(
      database.Execute("define sma y select min(d) from nope").ok());
}

}  // namespace
}  // namespace smadb
