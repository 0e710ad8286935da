// Tests for the Database facade and its SQL dialect.

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/sql.h"
#include "db/statement.h"
#include <algorithm>

#include "expr/parser.h"
#include "tests/test_util.h"
#include "tpch/loader.h"
#include "tpch/schemas.h"
#include "util/string_util.h"

namespace smadb::db {
namespace {

using testing::ExpectOk;
using testing::SyntheticSchema;
using testing::Unwrap;
using util::Value;

// ---------------------------------------------------------------- ParseQuery

struct SqlTest : ::testing::Test {
  SqlTest() : schema(SyntheticSchema()) {}
  storage::Schema schema;
};

TEST_F(SqlTest, ExtractTableName) {
  EXPECT_EQ(Unwrap(ExtractTableName("select * from t where k = 1")), "t");
  EXPECT_EQ(Unwrap(ExtractTableName("select count(*) from lineitem")),
            "lineitem");
  EXPECT_FALSE(ExtractTableName("select 1").ok());
}

TEST_F(SqlTest, ParsesSelectStar) {
  auto q = Unwrap(ParseQuery(&schema, "select * from t"));
  EXPECT_TRUE(q.select_star);
  EXPECT_EQ(q.table, "t");
  EXPECT_EQ(q.pred->kind(), expr::Predicate::Kind::kTrue);
}

TEST_F(SqlTest, ParsesSelectStarWithWhere) {
  auto q = Unwrap(
      ParseQuery(&schema, "select * from t where d <= '1970-02-01'"));
  EXPECT_TRUE(q.select_star);
  EXPECT_NE(q.pred->kind(), expr::Predicate::Kind::kTrue);
}

TEST_F(SqlTest, ParsesAggregatesWithAliases) {
  auto q = Unwrap(ParseQuery(
      &schema,
      "select sum(v) as total, count(*), avg(v), min(d) as first_day "
      "from t where k >= 10 group by grp"));
  EXPECT_FALSE(q.select_star);
  ASSERT_EQ(q.aggs.size(), 4u);
  EXPECT_EQ(q.aggs[0].name, "total");
  EXPECT_EQ(q.aggs[0].kind, exec::AggKind::kSum);
  EXPECT_EQ(q.aggs[1].kind, exec::AggKind::kCount);
  EXPECT_EQ(q.aggs[2].kind, exec::AggKind::kAvg);
  EXPECT_EQ(q.aggs[3].name, "first_day");
  EXPECT_EQ(q.group_by, (std::vector<size_t>{3}));
}

TEST_F(SqlTest, ParsesExpressionAggregate) {
  auto q = Unwrap(ParseQuery(
      &schema, "select sum(v * (1.00 - v)) from t group by grp, tag"));
  EXPECT_EQ(q.aggs[0].arg->ToString(), "(v * (1.00 - v))");
  EXPECT_EQ(q.group_by, (std::vector<size_t>{3, 4}));
}

TEST_F(SqlTest, GroupColumnsInSelectList) {
  auto q = Unwrap(ParseQuery(
      &schema, "select grp, count(*) from t group by grp"));
  EXPECT_EQ(q.selected_columns, (std::vector<size_t>{3}));
  // Bare column not in group by: rejected.
  EXPECT_FALSE(
      ParseQuery(&schema, "select tag, count(*) from t group by grp").ok());
}

TEST_F(SqlTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery(&schema, "selekt * from t").ok());
  EXPECT_FALSE(ParseQuery(&schema, "select * from").ok());
  EXPECT_FALSE(ParseQuery(&schema, "select from t").ok());
  EXPECT_FALSE(ParseQuery(&schema, "select * from t where").ok());
  EXPECT_FALSE(ParseQuery(&schema, "select * from t group by grp").ok());
  EXPECT_FALSE(ParseQuery(&schema, "select k from t").ok());  // no aggregate
  EXPECT_FALSE(ParseQuery(&schema, "select count(k) from t").ok());
  EXPECT_FALSE(ParseQuery(&schema, "select sum() from t").ok());
  const util::Status join = ParseQuery(&schema, "select * from t, s").status();
  EXPECT_EQ(join.code(), util::StatusCode::kNotSupported);
  EXPECT_EQ(join.message(),
            "joins are not supported: a query reads one table");
  EXPECT_FALSE(ParseQuery(&schema, "select * from t extra").ok());
  EXPECT_FALSE(
      ParseQuery(&schema, "select sum(v) from t group by zz").ok());
}

// ---------------------------------------------------------- ParseStatement

TEST(StatementTest, ClassifiesOnceWithTraceTableAndText) {
  const Statement explain = Unwrap(ParseStatement(
      "  TRACE 12aB Explain Analyze select count(*) from T where k < 3 "));
  EXPECT_EQ(explain.kind, Statement::Kind::kExplain);
  EXPECT_TRUE(explain.analyze);
  EXPECT_EQ(explain.trace_id, 0x12abu);  // not split into 12 and `ab`
  EXPECT_EQ(explain.table, "t");
  EXPECT_EQ(explain.text, "select count(*) from T where k < 3");

  const Statement set = Unwrap(ParseStatement("SET Storage_Path = '/A/b'"));
  EXPECT_EQ(set.kind, Statement::Kind::kSet);
  EXPECT_EQ(set.name, "storage_path");
  EXPECT_EQ(set.value.kind, expr::internal::TokKind::kString);
  EXPECT_EQ(set.value.text, "/A/b");

  const Statement define = Unwrap(ParseStatement(
      "define sma s select sum(v * (1.00 - v)) from t group by grp"));
  EXPECT_EQ(define.kind, Statement::Kind::kDefineSma);
  EXPECT_EQ(define.table, "t");
  EXPECT_EQ(define.trace_id, 0u);

  const Statement kill = Unwrap(ParseStatement("trace ff Kill Query 42"));
  EXPECT_EQ(kill.kind, Statement::Kind::kKill);
  EXPECT_EQ(kill.query_id, 42u);
  EXPECT_EQ(kill.trace_id, 0xffu);

  for (const char* bad : {"", "trace ab12 ", "trace ab12", "trace zz select",
                          "explain show metrics", "show", "scrub now",
                          "set dop 1", "set dop = 1 2", "kill query",
                          "define sma x select min(d)"}) {
    EXPECT_EQ(ParseStatement(bad).status().code(),
              util::StatusCode::kInvalidArgument)
        << bad;
  }
  for (const char* unknown : {"trace", "drop table t", "42"}) {
    EXPECT_EQ(ParseStatement(unknown).status().code(),
              util::StatusCode::kNotSupported)
        << unknown;
  }
}

// ------------------------------------------------------------------ Database

struct DatabaseTest : ::testing::Test {
  DatabaseTest() {
    table = Unwrap(db.CreateTable("t", SyntheticSchema()));
    storage::TupleBuffer buf(&table->schema());
    util::Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
      buf.SetInt64(0, i);
      buf.SetDate(1, util::Date(static_cast<int32_t>(i / 8)));
      buf.SetDecimal(2, util::Decimal(i));
      const char grp[2] = {static_cast<char>('A' + rng.Uniform(0, 2)), 0};
      buf.SetString(3, grp);
      buf.SetString(4, "MAIL");
      ExpectOk(db.Insert("t", buf));
    }
  }

  Database db;
  storage::Table* table = nullptr;
};

TEST_F(DatabaseTest, DefineSmaAndQueryUsesThem) {
  ExpectOk(db.Execute("define sma mn select min(d) from t"));
  ExpectOk(db.Execute("define sma mx select max(d) from t"));
  ExpectOk(db.Execute(
      "define sma sums select sum(v) from t group by grp"));
  ExpectOk(db.Execute(
      "define sma cnts select count(*) from t group by grp"));
  EXPECT_EQ(Unwrap(db.Smas("t"))->size(), 4u);

  auto result = Unwrap(db.Query(
      "select grp, sum(v) as total, count(*) as n, avg(v) as mean "
      "from t where d <= '1970-01-31' group by grp"));
  // Selective predicate on clustered data + full SMA complement -> the
  // planner picks SMA_GAggr.
  EXPECT_EQ(result.plan.kind, plan::PlanKind::kSmaGAggr);
  EXPECT_EQ(result.rows.size(), 3u);  // groups A, B, C

  // Cross-check against a plain scan: drop the SMAs by querying a twin
  // database without them.
  Database twin;
  storage::Table* twin_table =
      Unwrap(twin.CreateTable("t", SyntheticSchema()));
  (void)twin_table;
  // (Re-insert identical rows.)
  storage::TupleBuffer buf(&table->schema());
  for (uint32_t b = 0; b < table->num_buckets(); ++b) {
    ExpectOk(table->ForEachTupleInBucket(
        b, [&](const storage::TupleRef& t, storage::Rid) {
          for (size_t c = 0; c < table->schema().num_fields(); ++c) {
            buf.SetValue(c, t.GetValue(c));
          }
          ExpectOk(twin.Insert("t", buf));
        }));
  }
  auto twin_result = Unwrap(twin.Query(
      "select grp, sum(v) as total, count(*) as n, avg(v) as mean "
      "from t where d <= '1970-01-31' group by grp"));
  EXPECT_EQ(twin_result.plan.kind, plan::PlanKind::kScanAggr);
  EXPECT_EQ(result.ToString(), twin_result.ToString());
}

TEST_F(DatabaseTest, SelectStarQuery) {
  ExpectOk(db.Execute("define sma mn select min(d) from t"));
  ExpectOk(db.Execute("define sma mx select max(d) from t"));
  auto result =
      Unwrap(db.Query("select * from t where d < '1970-01-03'"));
  EXPECT_EQ(result.plan.kind, plan::PlanKind::kSmaScan);
  EXPECT_EQ(result.rows.size(), 16u);  // d in {0, 1}: 8 rows each
  EXPECT_EQ(result.schema->num_fields(), table->schema().num_fields());
}

TEST_F(DatabaseTest, GlobalAggregateWithoutGroupBy) {
  auto result = Unwrap(db.Query("select count(*) from t"));
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].AsRef().GetInt64(0), 2000);
}

TEST_F(DatabaseTest, MutationsStayConsistentWithSmas) {
  ExpectOk(db.Execute("define sma mn select min(d) from t"));
  ExpectOk(db.Execute("define sma mx select max(d) from t"));
  ExpectOk(db.Execute("define sma n select count(*) from t group by grp"));

  // Update a date, delete a tuple, insert a new one.
  ExpectOk(db.Update("t", storage::Rid{0, 0}, 1,
                     Value::MakeDate(util::Date(500))));
  ExpectOk(db.Delete("t", storage::Rid{0, 1}));
  storage::TupleBuffer buf(&table->schema());
  buf.SetInt64(0, 99999);
  buf.SetDate(1, util::Date(0));
  buf.SetDecimal(2, util::Decimal(5));
  buf.SetString(3, "A");
  buf.SetString(4, "MAIL");
  ExpectOk(db.Insert("t", buf));

  // SMA-backed count equals scan-backed count.
  auto via_sma = Unwrap(db.Query("select count(*) from t"));
  EXPECT_EQ(via_sma.rows[0].AsRef().GetInt64(0), 2000);  // -1 +1

  for (const sma::Sma* sma : Unwrap(db.Smas("t"))->all()) {
    testing::ExpectSmaEqualsRebuild(table, *sma);
  }
}

TEST_F(DatabaseTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(db.Query("select * from missing").ok());
  EXPECT_FALSE(db.Execute("drop table t").ok());
  EXPECT_FALSE(db.Execute("define sma x select min(d) from missing").ok());
  EXPECT_FALSE(db.Insert("missing", storage::TupleBuffer(&table->schema()))
                   .ok());
}

TEST_F(DatabaseTest, OverflowingLiteralIsATypedErrorNotAWrap) {
  // 2^64 + 1 used to wrap to 1 and match the row with k = 1.
  const auto result = db.Query(
      "select count(*) from t where k = 18446744073709551617");
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("18446744073709551617"),
            std::string::npos)
      << result.status().ToString();
  // The same goes for a knob value.
  EXPECT_EQ(db.Execute("set dop = 18446744073709551617").code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(db.degree_of_parallelism(), 0u);
}

TEST_F(DatabaseTest, StringPredicateQuery) {
  ExpectOk(db.Execute("define sma n select count(*) from t group by grp"));
  auto result = Unwrap(db.Query(
      "select count(*) as n from t where grp = 'A'"));
  ASSERT_EQ(result.rows.size(), 1u);
  const int64_t via_query = result.rows[0].AsRef().GetInt64(0);
  int64_t expected = 0;
  for (uint32_t b = 0; b < table->num_buckets(); ++b) {
    ExpectOk(table->ForEachTupleInBucket(
        b, [&](const storage::TupleRef& t, storage::Rid) {
          expected += t.GetString(3) == "A";
        }));
  }
  EXPECT_EQ(via_query, expected);
}

// -------------------------------------------- Q1 through the text stack --

// The paper's whole Fig. 4 + Query 1 flow expressed purely as text: eight
// `define sma` statements and one SQL query. The SMA-built result must
// equal the plain-scan result of a twin database without SMAs.
TEST(DatabaseQ1Test, Fig4AndQuery1AsText) {
  tpch::Dbgen gen({0.002, 42});
  std::vector<tpch::OrderRow> orders;
  std::vector<tpch::LineItemRow> lis;
  gen.GenOrdersAndLineItems(&orders, &lis);
  std::stable_sort(lis.begin(), lis.end(),
                   [](const tpch::LineItemRow& a, const tpch::LineItemRow& b) {
                     return a.shipdate < b.shipdate;
                   });

  Database with_smas;
  Database without_smas;
  for (Database* d : {&with_smas, &without_smas}) {
    storage::Table* t =
        Unwrap(d->CreateTable("lineitem", tpch::LineItemSchema()));
    for (const auto& row : lis) {
      ExpectOk(d->Insert("lineitem",
                         tpch::LineItemTuple(&t->schema(), row)));
    }
  }

  // Fig. 4, verbatim modulo attribute names.
  for (const char* stmt : {
           "define sma max select max(l_shipdate) from lineitem",
           "define sma min select min(l_shipdate) from lineitem",
           "define sma count select count(*) from lineitem "
           "group by l_returnflag, l_linestatus",
           "define sma qty select sum(l_quantity) from lineitem "
           "group by l_returnflag, l_linestatus",
           "define sma dis select sum(l_discount) from lineitem "
           "group by l_returnflag, l_linestatus",
           "define sma ext select sum(l_extendedprice) from lineitem "
           "group by l_returnflag, l_linestatus",
           "define sma extdis select sum(l_extendedprice * "
           "(1.00 - l_discount)) from lineitem "
           "group by l_returnflag, l_linestatus",
           "define sma extdistax select sum(l_extendedprice * "
           "(1.00 - l_discount) * (1.00 + l_tax)) from lineitem "
           "group by l_returnflag, l_linestatus",
       }) {
    ExpectOk(with_smas.Execute(stmt));
  }

  const char* q1 =
      "select l_returnflag, l_linestatus, "
      "sum(l_quantity) as sum_qty, "
      "sum(l_extendedprice) as sum_base_price, "
      "sum(l_extendedprice * (1.00 - l_discount)) as sum_disc_price, "
      "sum(l_extendedprice * (1.00 - l_discount) * (1.00 + l_tax)) "
      "as sum_charge, "
      "avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, "
      "avg(l_discount) as avg_disc, count(*) as count_order "
      "from lineitem where l_shipdate <= date '1998-09-02' "
      "group by l_returnflag, l_linestatus";

  auto a = Unwrap(with_smas.Query(q1));
  auto b = Unwrap(without_smas.Query(q1));
  EXPECT_EQ(a.plan.kind, plan::PlanKind::kSmaGAggr);
  EXPECT_EQ(b.plan.kind, plan::PlanKind::kScanAggr);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.rows.size(), 4u);  // A|F, N|F, N|O, R|F
}

// ------------------------------------------------- randomized end-to-end --

// Fuzz-style property: random predicates (ranges, equalities, strings,
// and/or trees) through the full Database → planner → operator stack must
// match a brute-force evaluation, with and without SMAs.
TEST(DatabaseFuzzTest, RandomQueriesMatchBruteForce) {
  Database with_smas;
  Database without_smas;
  storage::Table* t1 =
      Unwrap(with_smas.CreateTable("t", SyntheticSchema()));
  storage::Table* t2 =
      Unwrap(without_smas.CreateTable("t", SyntheticSchema()));

  util::Rng data_rng(8);
  storage::TupleBuffer buf(&t1->schema());
  std::vector<std::tuple<int32_t, int64_t, std::string>> rows;  // d, v, grp
  for (int i = 0; i < 3000; ++i) {
    const int32_t d = static_cast<int32_t>(i / 10 + data_rng.Uniform(-2, 2));
    const int64_t v = data_rng.Uniform(-1000, 1000);
    const char grp[2] = {static_cast<char>('A' + data_rng.Uniform(0, 3)), 0};
    buf.SetInt64(0, i);
    buf.SetDate(1, util::Date(d));
    buf.SetDecimal(2, util::Decimal(v));
    buf.SetString(3, grp);
    buf.SetString(4, "MAIL");
    ExpectOk(with_smas.Insert("t", buf));
    ExpectOk(without_smas.Insert("t", buf));
    rows.emplace_back(d, v, grp);
  }
  for (const char* stmt : {
           "define sma mn select min(d) from t",
           "define sma mx select max(d) from t",
           "define sma vmn select min(v) from t",
           "define sma vmx select max(v) from t",
           "define sma cnt select count(*) from t group by grp",
           "define sma sums select sum(v) from t group by grp",
       }) {
    ExpectOk(with_smas.Execute(stmt));
  }

  util::Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    // Random predicate text from a small grammar.
    auto atom = [&]() -> std::string {
      static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
      const char* op = kOps[rng.Uniform(0, 5)];
      switch (rng.Uniform(0, 2)) {
        case 0:
          return util::Format("d %s '%s'", op,
                              util::Date(static_cast<int32_t>(
                                             rng.Uniform(0, 320)))
                                  .ToString()
                                  .c_str());
        case 1:
          return util::Format("v %s %lld.%02lld", op,
                              static_cast<long long>(rng.Uniform(-10, 10)),
                              static_cast<long long>(rng.Uniform(0, 99)));
        default: {
          const char grp[2] = {static_cast<char>('A' + rng.Uniform(0, 4)),
                               0};
          return util::Format("grp %s '%s'",
                              rng.NextBool(0.5) ? "=" : "!=", grp);
        }
      }
    };
    std::string pred = atom();
    if (rng.NextBool(0.6)) {
      pred = "(" + pred + (rng.NextBool(0.5) ? " and " : " or ") + atom() +
             ")";
    }
    if (rng.NextBool(0.3)) {
      pred += rng.NextBool(0.5) ? " and " : " or ";
      pred += atom();
    }
    const std::string sql = "select sum(v) as s, count(*) as n from t "
                            "where " + pred + " group by grp";
    auto a = with_smas.Query(sql);
    auto b = without_smas.Query(sql);
    ASSERT_TRUE(a.ok()) << sql << " -> " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << " -> " << b.status().ToString();
    EXPECT_EQ(a->ToString(), b->ToString()) << sql;

    // Brute-force the count as an independent oracle.
    const expr::PredicatePtr parsed =
        Unwrap(expr::ParsePredicate(&t1->schema(), pred));
    int64_t expected = 0;
    for (uint32_t bkt = 0; bkt < t2->num_buckets(); ++bkt) {
      ExpectOk(t2->ForEachTupleInBucket(
          bkt, [&](const storage::TupleRef& tup, storage::Rid) {
            expected += parsed->Eval(tup);
          }));
    }
    int64_t got = 0;
    for (const auto& row : a->rows) {
      got += row.AsRef().GetInt64(2);  // grp | s | n
    }
    EXPECT_EQ(got, expected) << sql;
  }
}

}  // namespace
}  // namespace smadb::db
