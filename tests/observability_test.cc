// Observability suite (DESIGN.md §11): metrics registry units, trace-ring
// semantics, and — the load-bearing part — explain-analyze bucket censuses
// checked against grade ground truth across the vectorized predicate
// matrix, in row and batch mode, serial and parallel, including the
// degradation-ladder rerun where the pre-fix code double-counted.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "db/database.h"
#include "exec/bucket_source.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/query_registry.h"
#include "obs/trace.h"
#include "planner/planner.h"
#include "sma/builder.h"
#include "tests/test_util.h"
#include "util/fault.h"
#include "util/query_context.h"
#include "util/string_util.h"

namespace smadb {
namespace {

using exec::AggSpec;
using expr::CmpOp;
using expr::Predicate;
using expr::PredicatePtr;
using plan::AggQuery;
using plan::Planner;
using plan::PlannerOptions;
using plan::PlanKind;
using plan::RunToCompletion;
using testing::AddMinMaxSmas;
using testing::ExpectOk;
using testing::Layout;
using testing::MakeSyntheticTable;
using testing::TestDb;
using testing::Unwrap;
using util::QueryContext;
using util::StatusCode;
using util::Value;

// ------------------------------------------------------- metrics units ---

TEST(MetricsTest, CounterSumsAcrossThreads) {
  obs::Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 80000);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  obs::Gauge g;
  g.Set(42);
  g.Add(-2);
  EXPECT_EQ(g.value(), 40);
}

TEST(MetricsTest, HistogramCountSumAndQuantiles) {
  obs::Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Observe(v);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_EQ(h.sum(), 500500);
  // Power-of-two buckets: the interpolated median lands inside [256, 1024)
  // (the buckets holding ranks around 500), p99 at the top of the range.
  EXPECT_GE(h.Quantile(0.5), 256.0);
  EXPECT_LE(h.Quantile(0.5), 1024.0);
  EXPECT_GE(h.Quantile(0.99), h.Quantile(0.5));
  EXPECT_LE(h.Quantile(0.99), 1024.0);
  // Empty histogram: quantiles are 0, not NaN.
  obs::Histogram empty;
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
}

TEST(MetricsTest, RegistryRegistrationIsIdempotent) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("x_total", "a counter");
  obs::Counter* b = reg.GetCounter("x_total");
  EXPECT_EQ(a, b);
  a->Add(3);
  const auto snaps = reg.Snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].name, "x_total");
  EXPECT_EQ(snaps[0].value, 3);
}

TEST(MetricsTest, CallbackGaugeSampledAtSnapshot) {
  obs::MetricsRegistry reg;
  std::atomic<int64_t> source{7};
  reg.RegisterCallback("cb", "callback gauge",
                       [&source] { return source.load(); });
  EXPECT_EQ(reg.Snapshot()[0].value, 7);
  source = 9;
  EXPECT_EQ(reg.Snapshot()[0].value, 9);
}

TEST(MetricsTest, RenderPrometheusEmitsTypedSeries) {
  obs::MetricsRegistry reg;
  reg.GetCounter("c_total", "help c")->Add(5);
  reg.GetGauge("g", "help g")->Set(-2);
  reg.GetHistogram("h_us", "help h")->Observe(100);
  const std::string text = reg.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE c_total counter"), std::string::npos) << text;
  EXPECT_NE(text.find("c_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE g gauge"), std::string::npos);
  EXPECT_NE(text.find("g -2"), std::string::npos);
  EXPECT_NE(text.find("h_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("quantile"), std::string::npos);
}

// ---------------------------------------------------------- trace ring ---

TEST(TraceTest, RingOverwritesOldestAndKeepsOrder) {
  obs::TraceSink sink(/*capacity=*/4);
  for (uint64_t q = 1; q <= 6; ++q) {
    obs::TraceSpan span(&sink, q, "span" + std::to_string(q));
  }
  const auto events = sink.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "span3");  // 1 and 2 overwritten
  EXPECT_EQ(events.back().name, "span6");
}

TEST(TraceTest, DumpJsonIsAnArrayOfSpans) {
  obs::TraceSink sink(8);
  {
    obs::TraceSpan span(&sink, 1, "parse");
    span.set_note("with \"quotes\"");
  }
  const std::string json = sink.DumpJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"span\": \"parse\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos) << json;
}

TEST(TraceTest, NullSinkSpanIsANoop) {
  obs::TraceSpan span(nullptr, 1, "nothing");  // must not crash
}

// ------------------------------------- census vs grade ground truth ------

struct Census {
  uint64_t q = 0, d = 0, a = 0;
  bool operator==(const Census& o) const {
    return q == o.q && d == o.d && a == o.a;
  }
};

// Independent grade walk — GradeMorsel, the grading entry point the
// planner's Census uses, driven directly so the profile is checked against
// first principles.
Census GroundTruth(storage::Table* table, const PredicatePtr& pred,
                   const sma::SmaSet* smas) {
  exec::BucketSource source(table, pred, smas);
  const std::unique_ptr<sma::BucketGrader> grader = source.NewGrader();
  Census c;
  for (uint64_t m = 0; m < source.num_morsels(); ++m) {
    const auto [first, end] = source.Morsel(m);
    std::vector<sma::Grade> grades(end - first);
    ExpectOk(source.GradeMorsel(grader.get(), first, end, grades.data()));
    for (const sma::Grade g : grades) {
      switch (g) {
        case sma::Grade::kQualifies: ++c.q; break;
        case sma::Grade::kDisqualifies: ++c.d; break;
        case sma::Grade::kAmbivalent: ++c.a; break;
      }
    }
  }
  return c;
}

bool HasCensus(const obs::OperatorProfile& node) {
  return node.qualifying() + node.disqualifying() + node.ambivalent() > 0;
}

const obs::OperatorProfile* FindCensusNode(const obs::QueryProfile& profile) {
  for (const obs::OperatorProfile& node : profile.operators()) {
    if (HasCensus(node)) return &node;
  }
  return nullptr;
}

struct ProfileCensusTest : ::testing::Test {
  void Setup(const std::string& name) {
    table = MakeSyntheticTable(&db, 2000, Layout::kNoisy, 21, 1, name);
    smas = std::make_unique<sma::SmaSet>(table);
    AddMinMaxSmas(table, smas.get(), "d");
    const expr::ExprPtr v = Unwrap(expr::Column(&table->schema(), "v"));
    ExpectOk(smas->Add(
        Unwrap(sma::BuildSma(table, sma::SmaSpec::Sum("sum_v", v, {3})))));
    ExpectOk(smas->Add(
        Unwrap(sma::BuildSma(table, sma::SmaSpec::Count("cnt", {3})))));
    query.table = table;
    query.group_by = {3};
    query.aggs = {AggSpec::Sum(v, "sum_v"), AggSpec::Count("cnt")};
  }

  std::vector<PredicatePtr> PredicateMatrix() const {
    const auto& schema = table->schema();
    return {
        Predicate::True(),
        Unwrap(Predicate::AtomConst(&schema, "d", CmpOp::kLe,
                                    Value::MakeDate(util::Date(125)))),
        Unwrap(Predicate::AtomConst(&schema, "d", CmpOp::kGt,
                                    Value::MakeDate(util::Date(500)))),
        Predicate::And(
            Unwrap(Predicate::AtomConst(&schema, "d", CmpOp::kLe,
                                        Value::MakeDate(util::Date(125)))),
            Unwrap(Predicate::AtomString(&schema, "grp", CmpOp::kEq, "A"))),
        Predicate::Or(
            Unwrap(Predicate::AtomConst(&schema, "k", CmpOp::kLt,
                                        Value::Int64(64))),
            Unwrap(
                Predicate::AtomString(&schema, "tag", CmpOp::kEq, "RAIL"))),
    };
  }

  TestDb db{16384};
  storage::Table* table = nullptr;
  std::unique_ptr<sma::SmaSet> smas;
  AggQuery query;
};

// The tentpole invariant: for every predicate shape, execution mode, and
// degree of parallelism, the profile's q/d/a counts equal the independent
// grade walk, and q+d+a covers every bucket exactly once.
TEST_F(ProfileCensusTest, EveryPlanShapeMatchesGradeGroundTruth) {
  Setup("pc1");
  const auto preds = PredicateMatrix();
  for (size_t p = 0; p < preds.size(); ++p) {
    query.pred = preds[p];
    const Census want = GroundTruth(table, query.pred, smas.get());
    ASSERT_EQ(want.q + want.d + want.a, table->num_buckets());
    Planner planner(smas.get());
    for (const size_t dop : {size_t{1}, size_t{4}}) {
      for (const PlanKind kind :
           {PlanKind::kSmaScanAggr, PlanKind::kSmaGAggr}) {
        SCOPED_TRACE(::testing::Message() << "pred " << p << " dop=" << dop
                                          << " kind "
                                          << plan::PlanKindToString(kind));
        auto op = Unwrap(planner.Build(query, kind, dop));
        obs::QueryProfile profile;
        QueryContext ctx;
        ctx.set_profile(&profile);
        op->BindContext(&ctx);
        Unwrap(RunToCompletion(op.get(), &ctx));
        const obs::OperatorProfile* node = FindCensusNode(profile);
        ASSERT_NE(node, nullptr);
        const Census got{node->qualifying(), node->disqualifying(),
                         node->ambivalent()};
        EXPECT_EQ(got.q, want.q) << node->name();
        EXPECT_EQ(got.d, want.d) << node->name();
        EXPECT_EQ(got.a, want.a) << node->name();
      }
    }
  }
}

// Regression: a SMA_GAggr attempt that dies on its memory budget partway
// through the buckets merges each worker's partial census exactly once
// into the FAILED node, and the SMA-only rerun registers a fresh node
// whose census again equals ground truth — no double counting across the
// ladder.
TEST_F(ProfileCensusTest, DegradedRerunCountsEachAttemptOnce) {
  Setup("pc2");
  query.pred = Unwrap(Predicate::AtomConst(
      &table->schema(), "d", CmpOp::kLe, Value::MakeDate(util::Date(125))));
  const Census want = GroundTruth(table, query.pred, smas.get());
  for (const size_t dop : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "dop " << dop);
    PlannerOptions options;
    options.degree_of_parallelism = dop;
    Planner planner(smas.get(), options);
    ASSERT_EQ(Unwrap(planner.Choose(query)).kind, PlanKind::kSmaGAggr);
    obs::QueryProfile profile;
    QueryContext ctx;
    ctx.set_profile(&profile);
    // The first GroupTable charge fails: the attempt dies after grading
    // and tallying at least one bucket.
    util::fault::Arm("governor.charge",
                     {.count = 1, .file_filter = "GroupTable"});
    const auto run = planner.Execute(query, &ctx);
    util::fault::DisarmAll();
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->plan.degraded);
    EXPECT_NE(run->plan.explanation.find("SMA-only"), std::string::npos)
        << run->plan.explanation;
    // The ladder left a degradation event in the profile.
    bool saw_event = false;
    for (const std::string& e : profile.events()) {
      saw_event |= e.find("SMA-only") != std::string::npos;
    }
    EXPECT_TRUE(saw_event);
    // Exactly one failed attempt and one successful one, each with its own
    // node; the successful node's census equals ground truth exactly.
    size_t failed_nodes = 0, exact_nodes = 0;
    for (const obs::OperatorProfile& node : profile.operators()) {
      if (HasCensus(node)) {
        const Census got{node.qualifying(), node.disqualifying(),
                         node.ambivalent()};
        EXPECT_LE(got.q + got.d + got.a, table->num_buckets())
            << node.name() << " over-counted";
        if (node.failed()) {
          ++failed_nodes;
        } else if (got == want) {
          ++exact_nodes;
        }
      } else if (node.failed()) {
        ++failed_nodes;  // died before tallying any bucket
      }
    }
    EXPECT_GE(failed_nodes, 1u);
    EXPECT_EQ(exact_nodes, 1u);
  }
}

// A grouped scan plan is one ScanAggr node (SmaGAggr's scan form) at every
// dop, and its `explain analyze` line reports the merged group state as
// `peak=`.
TEST_F(ProfileCensusTest, GroupedScanPlanReportsPeakGroupBytes) {
  Setup("pc3");
  query.pred = Predicate::True();
  Planner planner(smas.get());
  for (const size_t dop : {size_t{1}, size_t{4}}) {
    for (const PlanKind kind : {PlanKind::kScanAggr, PlanKind::kSmaScanAggr}) {
      SCOPED_TRACE(::testing::Message() << plan::PlanKindToString(kind)
                                        << " dop=" << dop);
      auto op = Unwrap(planner.Build(query, kind, dop));
      obs::QueryProfile profile;
      QueryContext ctx;
      ctx.set_profile(&profile);
      op->BindContext(&ctx);
      Unwrap(RunToCompletion(op.get(), &ctx));
      ASSERT_EQ(profile.operators().size(), 1u);
      EXPECT_GT(profile.operators().front().peak_bytes(), 0u);
      const std::vector<std::string> report = profile.Render();
      const auto line = std::find_if(
          report.begin(), report.end(), [](const std::string& l) {
            return l.find("ScanAggr") != std::string::npos;
          });
      ASSERT_NE(line, report.end());
      EXPECT_NE(line->find(" peak="), std::string::npos) << *line;
      EXPECT_NE(line->find(util::Format("dop=%zu", dop)), std::string::npos)
          << *line;
    }
  }
}

// ------------------------------------------------------ Database level ---

db::Database* MakeDatabase(db::DatabaseOptions options = {}) {
  auto* database = new db::Database(options);
  auto* table = Unwrap(database->CreateTable("t", testing::SyntheticSchema()));
  util::Rng rng(11);
  static const char* kTags[] = {"MAIL", "RAIL", "SHIP", "AIR"};
  storage::TupleBuffer t(&table->schema());
  for (int64_t i = 0; i < 2000; ++i) {
    t.SetInt64(0, i);
    t.SetDate(1, util::Date(static_cast<int32_t>(i / 8)));
    t.SetDecimal(2, util::Decimal(i * 3));
    const char grp = static_cast<char>('A' + rng.Uniform(0, 2));
    t.SetString(3, std::string_view(&grp, 1));
    t.SetString(4, kTags[rng.Uniform(0, 3)]);
    ExpectOk(database->Insert("t", t));
  }
  ExpectOk(database->Execute("define sma mind select min(d) from t"));
  ExpectOk(database->Execute("define sma maxd select max(d) from t"));
  return database;
}

TEST(DatabaseObsTest, ExplainAnalyzeCensusCoversTheTableAndPoolAgrees) {
  std::unique_ptr<db::Database> database(MakeDatabase());
  storage::Table* table = Unwrap(database->GetTable("t"));
  const storage::PoolStats before = database->pool()->stats();
  // Day 14 of 0..250: selective enough that Choose picks an SMA plan
  // (the census only exists when buckets are graded).
  const auto result = Unwrap(database->Query(
      "explain analyze select count(*) from t where d <= '1970-01-15'"));
  const storage::PoolStats after = database->pool()->stats();

  ASSERT_FALSE(result.rows.empty());
  std::string report;
  for (const auto& row : result.rows) {
    report += row.AsRef().GetValue(0).AsString();
    report += '\n';
  }
  EXPECT_NE(report.find("operators:"), std::string::npos) << report;
  EXPECT_NE(report.find("wall="), std::string::npos) << report;
  EXPECT_NE(report.find("phases:"), std::string::npos) << report;

  const obs::QueryProfile* profile = database->last_profile();
  ASSERT_NE(profile, nullptr);
  const obs::OperatorProfile* node = FindCensusNode(*profile);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->qualifying() + node->disqualifying() + node->ambivalent(),
            table->num_buckets());
  EXPECT_GT(node->wall_ns(), 0u);
  // The profile's pool figures are the same deltas we observe outside.
  EXPECT_EQ(profile->pool_hits(), after.hits - before.hits);
  EXPECT_EQ(profile->pool_misses(), after.misses - before.misses);
  EXPECT_GT(profile->pool_hits() + profile->pool_misses(), 0u);

  // And `show profile` replays the same report.
  const auto replay = Unwrap(database->Query("show profile"));
  EXPECT_EQ(replay.rows.size(), result.rows.size());
}

TEST(DatabaseObsTest, QueryCountersAndLatencyHistogramAdvance) {
  std::unique_ptr<db::Database> database(MakeDatabase());
  Unwrap(database->Query("select count(*) from t"));
  EXPECT_FALSE(database->Query("select count(*) from missing").ok());
  int64_t total = -1, failed = -1, hist_count = -1;
  for (const auto& s : database->metrics()->Snapshot()) {
    if (s.name == "smadb_queries_total") total = s.value;
    if (s.name == "smadb_queries_failed_total") failed = s.value;
    if (s.name == "smadb_query_latency_us") hist_count = s.count;
  }
  EXPECT_EQ(total, 2);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(hist_count, 2);
  const std::string prom = database->ExportMetrics();
  EXPECT_NE(prom.find("# TYPE smadb_queries_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("smadb_pool_hits"), std::string::npos);
}

TEST(DatabaseObsTest, ShowStatementsAndTrace) {
  std::unique_ptr<db::Database> database(MakeDatabase());
  Unwrap(database->Query("select count(*) from t"));

  const auto metrics = Unwrap(database->Query("show metrics"));
  ASSERT_FALSE(metrics.rows.empty());
  std::string joined;
  for (const auto& row : metrics.rows) {
    joined += row.AsRef().GetValue(0).AsString();
    joined += '\n';
  }
  EXPECT_NE(joined.find("smadb_queries_total = 1"), std::string::npos)
      << joined;

  const auto trace = Unwrap(database->Query("show trace"));
  ASSERT_FALSE(trace.rows.empty());
  const std::string first = trace.rows[0].AsRef().GetValue(0).AsString();
  EXPECT_NE(first.find("[q"), std::string::npos) << first;
  EXPECT_NE(database->DumpTrace().find("\"span\": \"execute\""),
            std::string::npos);

  // `show profile` before any explain analyze: a friendly hint, not rows.
  std::unique_ptr<db::Database> fresh(new db::Database());
  const auto none = Unwrap(fresh->Query("show profile"));
  ASSERT_EQ(none.rows.size(), 1u);
  EXPECT_NE(none.rows[0].AsRef().GetValue(0).AsString().find("no profiled"),
            std::string::npos);

  EXPECT_FALSE(database->Query("show nonsense").ok());
}

TEST(DatabaseObsTest, DisabledMetricsLeaveRegistryAndTraceEmpty) {
  db::DatabaseOptions options;
  options.enable_metrics = false;
  std::unique_ptr<db::Database> database(MakeDatabase(options));
  Unwrap(database->Query("select count(*) from t"));
  EXPECT_TRUE(database->metrics()->Snapshot().empty());
  EXPECT_TRUE(database->trace()->Events().empty());
  // explain analyze still profiles — opt-in per statement, not per DB.
  const auto result =
      Unwrap(database->Query("explain analyze select count(*) from t"));
  EXPECT_FALSE(result.rows.empty());
  EXPECT_NE(database->last_profile(), nullptr);
}

TEST(DatabaseObsTest, SharedRegistryIsFedInstead) {
  obs::MetricsRegistry shared;
  db::DatabaseOptions options;
  options.metrics_registry = &shared;
  {
    std::unique_ptr<db::Database> database(MakeDatabase(options));
    Unwrap(database->Query("select count(*) from t"));
    bool found = false;
    for (const auto& s : shared.Snapshot()) {
      found |= s.name == "smadb_queries_total" && s.value == 1;
    }
    EXPECT_TRUE(found);
  }
}

// -------------------------------------------------- structured logging ---

/// A ring-only logger (no stderr noise from tests).
obs::Logger::Options QuietLog(obs::LogLevel min_level = obs::LogLevel::kDebug,
                              int max_per_sec = 1'000'000) {
  obs::Logger::Options o;
  o.min_level = min_level;
  o.max_per_sec = max_per_sec;
  o.sink = nullptr;
  return o;
}

TEST(LoggerTest, LogfmtLineHasTimestampLevelEventAndEscapedFields) {
  obs::Logger log(QuietLog());
  log.Info("checkpoint", {{"file", "wal.log"},
                          {"bytes", int64_t{4096}},
                          {"note", "has space and \"quote\""},
                          {"ratio", 0.5}});
  const auto tail = log.Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  const std::string& line = tail[0];
  EXPECT_NE(line.find("ts="), std::string::npos) << line;
  EXPECT_NE(line.find("level=info"), std::string::npos) << line;
  EXPECT_NE(line.find("event=checkpoint"), std::string::npos) << line;
  EXPECT_NE(line.find("file=wal.log"), std::string::npos) << line;
  EXPECT_NE(line.find("bytes=4096"), std::string::npos) << line;
  // Values with spaces/quotes are quoted with escapes, logfmt-style.
  EXPECT_NE(line.find("note=\"has space and \\\"quote\\\"\""),
            std::string::npos)
      << line;
}

TEST(LoggerTest, JsonModeEmitsOneObjectPerLine) {
  auto opts = QuietLog();
  opts.json = true;
  obs::Logger log(opts);
  log.Warn("slow_query", {{"query", uint64_t{7}}, {"sql", "select \"x\""}});
  const auto tail = log.Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  const std::string& line = tail[0];
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"level\": \"warn\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"event\": \"slow_query\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"sql\": \"select \\\"x\\\"\""), std::string::npos)
      << line;
}

TEST(LoggerTest, LevelGateDropsBelowMinAndIsRuntimeAdjustable) {
  obs::Logger log(QuietLog(obs::LogLevel::kWarn));
  log.Debug("d", {});
  log.Info("i", {});
  log.Warn("w", {});
  EXPECT_EQ(log.emitted(), 1u);
  log.set_min_level(obs::LogLevel::kDebug);
  log.Debug("d2", {});
  EXPECT_EQ(log.emitted(), 2u);
  const auto tail = log.Tail(10);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_NE(tail[0].find("event=w"), std::string::npos);
  EXPECT_NE(tail[1].find("event=d2"), std::string::npos);
}

TEST(LoggerTest, RateLimitDropsInfoButNeverWarn) {
  obs::Logger log(QuietLog(obs::LogLevel::kDebug, /*max_per_sec=*/5));
  for (int i = 0; i < 50; ++i) log.Info("chatty", {{"i", i}});
  // The 50 emits may straddle one second boundary, so at most two windows'
  // worth can get through.
  EXPECT_LE(log.emitted(), 10u);
  EXPECT_GE(log.dropped(), 40u);
  // WARN and above bypass the limiter: operators must see every one.
  const uint64_t before = log.emitted();
  for (int i = 0; i < 20; ++i) log.Warn("important", {{"i", i}});
  EXPECT_EQ(log.emitted(), before + 20);
}

TEST(LoggerTest, RingIsBoundedAndKeepsTheNewest) {
  auto opts = QuietLog();
  opts.ring_capacity = 4;
  obs::Logger log(opts);
  for (int i = 0; i < 10; ++i) log.Info("e", {{"i", i}});
  const auto tail = log.Tail(100);
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_NE(tail.back().find("i=9"), std::string::npos);
  EXPECT_NE(tail.front().find("i=6"), std::string::npos);
}

// ------------------------------------------------ live query registry ---

TEST(QueryRegistryTest, RegisterSnapshotKillUnregister) {
  obs::QueryRegistry reg;
  auto token = std::make_shared<util::CancelToken>();
  reg.Register(7, 0xdeadbeef, 3, "select 1", token, nullptr);
  EXPECT_EQ(reg.size(), 1u);

  auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].query_id, 7u);
  EXPECT_EQ(snap[0].trace_id, 0xdeadbeefu);
  EXPECT_EQ(snap[0].session_id, 3u);
  EXPECT_EQ(snap[0].sql, "select 1");
  EXPECT_EQ(snap[0].phase, "admission");
  EXPECT_FALSE(snap[0].cancel_requested);

  reg.SetPhase(7, "execute");
  EXPECT_EQ(reg.Snapshot()[0].phase, "execute");

  // Kill trips the shared token; the registry keeps the entry until the
  // query unwinds and unregisters itself.
  EXPECT_TRUE(reg.Kill(7));
  EXPECT_TRUE(token->cancel_requested());
  EXPECT_TRUE(reg.Snapshot()[0].cancel_requested);

  reg.Unregister(7);
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_FALSE(reg.Kill(7));  // gone: kill reports not-found
}

TEST(QueryRegistryTest, KillIsSafeAfterQueryFinishes) {
  // The registry holds a shared_ptr to the token, so a Kill racing the
  // query's exit either finds the entry (and cancels a token that nothing
  // reads anymore — harmless) or misses it (returns false). Simulate the
  // "snapshot taken, query exits, kill fires" interleaving.
  obs::QueryRegistry reg;
  auto token = std::make_shared<util::CancelToken>();
  reg.Register(1, 0, 0, "select 1", token, nullptr);
  auto snap = reg.Snapshot();
  reg.Unregister(1);
  token.reset();  // the query's context is gone too
  EXPECT_FALSE(reg.Kill(snap[0].query_id));
}

TEST(QueryRegistryTest, GuardRegistersAndUnregistersRaii) {
  obs::QueryRegistry reg;
  auto token = std::make_shared<util::CancelToken>();
  {
    obs::QueryRegistry::Guard live(&reg, 42, 0xabc, 1, "select g from t",
                                   token, nullptr);
    EXPECT_EQ(reg.size(), 1u);
    live.SetPhase("execute");
    EXPECT_EQ(reg.Snapshot()[0].phase, "execute");
  }
  EXPECT_EQ(reg.size(), 0u);
  {
    obs::QueryRegistry::Guard noop(nullptr, 1, 0, 0, "x", token, nullptr);
    noop.SetPhase("parse");  // must not crash
  }
}

TEST(QueryRegistryTest, DumpJsonEscapesSqlAndListsEveryEntry) {
  obs::QueryRegistry reg;
  auto token = std::make_shared<util::CancelToken>();
  reg.Register(1, 0x1f, 2, "select \"g\"\nfrom t", token, nullptr);
  const std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"query\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace\": \"1f\""), std::string::npos) << json;
  EXPECT_NE(json.find("select \\\"g\\\"\\nfrom t"), std::string::npos)
      << json;
  reg.Unregister(1);
  EXPECT_EQ(reg.DumpJson(), "[]");
}

// ---------------------------------------------- end-to-end trace ids ---

TEST(TraceIdTest, SpanProfileAndDumpJsonCarryTheId) {
  obs::TraceSink sink(8);
  { obs::TraceSpan span(&sink, 3, "execute", 0xdeadbeef); }
  const std::string json = sink.DumpJson();
  EXPECT_NE(json.find("\"trace\": \"deadbeef\""), std::string::npos) << json;

  obs::QueryProfile profile(3, 0xdeadbeef);
  EXPECT_EQ(profile.trace_id(), 0xdeadbeefu);
  bool saw = false;
  for (const std::string& line : profile.Render()) {
    saw |= line.find("trace=deadbeef") != std::string::npos;
  }
  EXPECT_TRUE(saw);
}

TEST(TraceIdTest, TracePrefixThreadsThroughProfileSpansAndShowTrace) {
  std::unique_ptr<db::Database> database(MakeDatabase());
  const auto result = Unwrap(database->Query(
      "trace deadbeef explain analyze select count(*) from t"));
  std::string report;
  for (const auto& row : result.rows) {
    report += row.AsRef().GetValue(0).AsString();
    report += '\n';
  }
  EXPECT_NE(report.find("trace=deadbeef"), std::string::npos) << report;
  EXPECT_NE(database->DumpTrace().find("\"trace\": \"deadbeef\""),
            std::string::npos);
  const auto trace = Unwrap(database->Query("show trace"));
  bool saw = false;
  for (const auto& row : trace.rows) {
    saw |= row.AsRef().GetValue(0).AsString().find("tdeadbeef") !=
           std::string::npos;
  }
  EXPECT_TRUE(saw);

  // Malformed prefixes are rejected with a typed error, never half-parsed.
  EXPECT_EQ(database->Query("trace xyz select 1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(database->Query("trace deadbeef").status().code(),
            StatusCode::kInvalidArgument);
}

/// Pins the /debug/trace (and show trace json) schema: an array of objects
/// with exactly query / trace / span / start_us / duration_us [/ note], in
/// that order. The dashboards parse this; drift is a break.
void ExpectTraceJsonSchema(const std::string& json) {
  ASSERT_GE(json.size(), 2u) << json;
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  size_t at = 1;
  int entries = 0;
  while (true) {
    const size_t open = json.find('{', at);
    if (open == std::string::npos) break;
    const size_t close = json.find('}', open);
    ASSERT_NE(close, std::string::npos) << json;
    const std::string obj = json.substr(open, close - open + 1);
    const size_t q = obj.find("\"query\": ");
    const size_t t = obj.find("\"trace\": \"");
    const size_t s = obj.find("\"span\": \"");
    const size_t st = obj.find("\"start_us\": ");
    const size_t d = obj.find("\"duration_us\": ");
    ASSERT_NE(q, std::string::npos) << obj;
    ASSERT_NE(t, std::string::npos) << obj;
    ASSERT_NE(s, std::string::npos) << obj;
    ASSERT_NE(st, std::string::npos) << obj;
    ASSERT_NE(d, std::string::npos) << obj;
    EXPECT_TRUE(q < t && t < s && s < st && st < d) << obj;
    ++entries;
    at = close + 1;
  }
  EXPECT_GT(entries, 0) << json;
}

TEST(TraceIdTest, DumpTraceJsonSchemaIsPinned) {
  std::unique_ptr<db::Database> database(MakeDatabase());
  Unwrap(database->Query("trace abc123 select count(*) from t"));
  Unwrap(database->Query("select grp, count(*) from t group by grp"));
  ExpectTraceJsonSchema(database->DumpTrace());
}

// ----------------------------------------- show queries / kill query ---

TEST(DatabaseObsTest, ShowQueriesAndKillQueryStatements) {
  std::unique_ptr<db::Database> database(MakeDatabase());
  const auto none = Unwrap(database->Query("show queries"));
  ASSERT_EQ(none.rows.size(), 1u);
  EXPECT_NE(
      none.rows[0].AsRef().GetValue(0).AsString().find("no queries"),
      std::string::npos);
  EXPECT_EQ(database->DumpQueries(), "[]");

  EXPECT_EQ(database->Execute("kill query 424242").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(database->Execute("kill query").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(database->Execute("kill query abc").code(),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseObsTest, KillQueryCancelsAConcurrentScan) {
  std::unique_ptr<db::Database> database(MakeDatabase());
  // Hold the victim query open deterministically: its cancel checkpoint
  // spins until the killer has fired. The failpoint delivers a cancel at
  // the first governor checkpoint, but we want the *registry* path, so we
  // instead park the query by making it wait for the kill through a flag
  // checked in a second thread issuing `kill query` as soon as the entry
  // shows up in `show queries`.
  std::atomic<bool> killed{false};
  std::thread killer([&] {
    // Poll the registry until a victim registers, then kill it. A kNotFound
    // means the query drained between snapshot and kill — exactly the race
    // the shared-token design absorbs — so just try the next one.
    for (int i = 0; i < 5'000; ++i) {
      const auto snap = database->query_registry()->Snapshot();
      if (!snap.empty()) {
        const util::Status st = database->Execute(
            util::Format("kill query %llu",
                         static_cast<unsigned long long>(snap[0].query_id)));
        if (st.ok()) {
          killed.store(true);
          return;
        }
        EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
        continue;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // The victim: a query whose first governor checkpoint waits for the
  // killer. "governor.cancel" can't help here (it would cancel by itself),
  // so instead run a long-enough loop of queries until one is killed.
  util::Status victim_status = util::Status::OK();
  for (int i = 0; i < 5'000 && !killed.load(); ++i) {
    const auto r = database->Query("select grp, sum(v) from t group by grp");
    if (!r.ok()) {
      victim_status = r.status();
      break;
    }
  }
  killer.join();
  EXPECT_TRUE(killed.load());
  // Either a query died with kCancelled (the kill landed mid-flight) or
  // the kill landed between checkpoints of a query that then completed —
  // both are correct kill semantics; what must hold afterwards is a clean
  // registry and a working database.
  if (!victim_status.ok()) {
    EXPECT_EQ(victim_status.code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(database->query_registry()->size(), 0u);
  Unwrap(database->Query("select count(*) from t"));
}

// ------------------------------------------------- slow-query logging ---

TEST(DatabaseObsTest, SlowQueryThresholdLogsWarnWithProfile) {
  db::DatabaseOptions options;
  options.log = QuietLog();
  options.slow_query_ms = 1;  // everything beyond 1 ms is "slow"
  std::unique_ptr<db::Database> database(MakeDatabase(options));
  // Serial, over an inflated table: comfortably beyond 1 ms on any
  // machine; repeat a few times in case the first run is unexpectedly
  // fast anyway.
  {
    storage::Table* table = Unwrap(database->GetTable("t"));
    storage::TupleBuffer t(&table->schema());
    util::Rng rng(13);
    static const char* kTags[] = {"MAIL", "RAIL", "SHIP", "AIR"};
    for (int64_t i = 0; i < 40'000; ++i) {
      t.SetInt64(0, 2000 + i);
      t.SetDate(1, util::Date(static_cast<int32_t>(250 + i / 8)));
      t.SetDecimal(2, util::Decimal(i * 3));
      const char grp = static_cast<char>('A' + rng.Uniform(0, 2));
      t.SetString(3, std::string_view(&grp, 1));
      t.SetString(4, kTags[rng.Uniform(0, 3)]);
      ExpectOk(database->Insert("t", t));
    }
  }
  ExpectOk(database->Execute("set dop = 1"));
  bool saw = false;
  for (int i = 0; i < 50 && !saw; ++i) {
    Unwrap(database->Query(
        "trace cafe01 select grp, tag, sum(v), count(*) from t group by grp, "
        "tag"));
    for (const std::string& line : database->logger()->Tail(10)) {
      saw |= line.find("event=slow_query") != std::string::npos &&
             line.find("trace=cafe01") != std::string::npos &&
             line.find("profile=") != std::string::npos;
    }
  }
  EXPECT_TRUE(saw) << "no slow_query WARN line after 50 attempts";

  // The slow-query profile is internal: `show profile` still replays the
  // last *explain analyze*, not the slow-query capture.
  const auto replay = Unwrap(database->Query("show profile"));
  ASSERT_EQ(replay.rows.size(), 1u);
  EXPECT_NE(
      replay.rows[0].AsRef().GetValue(0).AsString().find("no profiled"),
      std::string::npos);

  // The knob is runtime-adjustable and 0 disarms it.
  ExpectOk(database->Execute("set slow_query_ms = 0"));
  EXPECT_EQ(database->slow_query_ms(), 0);
}

// ------------------------------------- Prometheus exposition linting ---

/// A strict line-level parser for the Prometheus text exposition format:
/// every line must be a HELP/TYPE comment or a well-formed sample, TYPE
/// must precede its family's samples, families must not interleave, and
/// label values must use only the \" \\ \n escapes. This is the same
/// contract tools/promlint.py enforces on live scrapes in CI.
void LintPrometheus(const std::string& text) {
  std::vector<std::string> lines;
  size_t at = 0;
  while (at < text.size()) {
    size_t nl = text.find('\n', at);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(at, nl - at));
    at = nl + 1;
  }
  auto is_name = [](const std::string& s) {
    if (s.empty()) return false;
    for (size_t i = 0; i < s.size(); ++i) {
      const char ch = s[i];
      const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      ch == '_' || ch == ':' ||
                      (i > 0 && ch >= '0' && ch <= '9');
      if (!ok) return false;
    }
    return true;
  };
  std::vector<std::string> family_order;  // distinct, in first-seen order
  std::string open_family;                // family whose block we're inside
  std::set<std::string> typed;
  for (const std::string& line : lines) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const bool is_type = line.rfind("# TYPE ", 0) == 0;
      std::string rest = line.substr(7);
      const size_t sp = rest.find(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      const std::string fam = rest.substr(0, sp);
      ASSERT_TRUE(is_name(fam)) << line;
      if (is_type) {
        const std::string kind = rest.substr(sp + 1);
        ASSERT_TRUE(kind == "counter" || kind == "gauge" ||
                    kind == "summary")
            << line;
        // A `_total` name promises counter semantics (callback gauges over
        // monotonic totals must still expose as counters).
        if (fam.size() > 6 &&
            fam.compare(fam.size() - 6, 6, "_total") == 0) {
          ASSERT_EQ(kind, "counter") << line;
        }
        ASSERT_EQ(typed.count(fam), 0u) << "duplicate TYPE for " << fam;
        typed.insert(fam);
      }
      if (open_family != fam) {
        for (const std::string& seen : family_order) {
          ASSERT_NE(seen, fam) << "family " << fam << " interleaved";
        }
        family_order.push_back(fam);
        open_family = fam;
      }
      continue;
    }
    // A sample: name[{labels}] value
    const size_t brace = line.find('{');
    const size_t name_end = brace != std::string::npos
                                ? brace
                                : line.find(' ');
    ASSERT_NE(name_end, std::string::npos) << line;
    const std::string name = line.substr(0, name_end);
    ASSERT_TRUE(is_name(name)) << line;
    // The sample's family must be the open block (name itself, or a
    // histogram-derived name_sum / name_count / quantile series).
    const bool in_family =
        name == open_family ||
        name == open_family + "_sum" || name == open_family + "_count";
    ASSERT_TRUE(in_family) << "sample " << name << " outside family block "
                           << open_family;
    ASSERT_EQ(typed.count(open_family), 1u)
        << "sample before TYPE: " << line;
    size_t value_at = name_end;
    if (brace != std::string::npos) {
      // Parse the label set with escape handling.
      size_t i = brace + 1;
      bool closed = false;
      while (i < line.size()) {
        if (line[i] == '}') {
          closed = true;
          ++i;
          break;
        }
        const size_t eq = line.find('=', i);
        ASSERT_NE(eq, std::string::npos) << line;
        ASSERT_TRUE(is_name(line.substr(i, eq - i))) << line;
        ASSERT_EQ(line[eq + 1], '"') << line;
        size_t v = eq + 2;
        for (; v < line.size() && line[v] != '"'; ++v) {
          if (line[v] == '\\') {
            ASSERT_LT(v + 1, line.size()) << line;
            const char esc = line[v + 1];
            ASSERT_TRUE(esc == '\\' || esc == '"' || esc == 'n') << line;
            ++v;
          }
        }
        ASSERT_LT(v, line.size()) << "unterminated label value: " << line;
        i = v + 1;
        if (i < line.size() && line[i] == ',') ++i;
      }
      ASSERT_TRUE(closed) << "unterminated label set: " << line;
      value_at = i;
    }
    ASSERT_LT(value_at, line.size()) << line;
    ASSERT_EQ(line[value_at], ' ') << line;
    const std::string value = line.substr(value_at + 1);
    ASSERT_FALSE(value.empty()) << line;
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    ASSERT_EQ(*end, '\0') << "unparseable value: " << line;
  }
}

TEST(MetricsTest, RenderPrometheusPassesFormatLint) {
  std::unique_ptr<db::Database> database(MakeDatabase());
  Unwrap(database->Query("select count(*) from t"));
  Unwrap(database->Query("scrub"));  // emits per-file labeled gauges
  const std::string prom = database->ExportMetrics();
  LintPrometheus(prom);
  // HELP/TYPE really are present for core families.
  EXPECT_NE(prom.find("# TYPE smadb_queries_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# HELP smadb_queries_total"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE smadb_query_latency_us summary"),
            std::string::npos);
  // The disk's seek mix partitions its page reads.
  const auto sample = [&](const std::string& name) -> int64_t {
    const size_t at = prom.find("\n" + name + " ");
    EXPECT_NE(at, std::string::npos) << name;
    return at == std::string::npos
               ? -1
               : std::stoll(prom.substr(at + name.size() + 2));
  };
  EXPECT_EQ(sample("smadb_disk_sequential_reads") +
                sample("smadb_disk_near_reads") +
                sample("smadb_disk_random_reads"),
            sample("smadb_disk_page_reads"));
}

TEST(MetricsTest, LabeledGaugeEscapesHostileLabelValues) {
  obs::MetricsRegistry registry;
  obs::Gauge* g = registry.GetLabeledGauge(
      "smadb_scrub_corrupt_pages",
      {{"file", "we\"ird\\dir\nname.dat"}}, "Corrupt pages per file");
  g->Set(3);
  // Same name + labels = same instrument (idempotent, like GetGauge).
  EXPECT_EQ(registry.GetLabeledGauge("smadb_scrub_corrupt_pages",
                                     {{"file", "we\"ird\\dir\nname.dat"}}),
            g);
  const std::string prom = registry.RenderPrometheus();
  EXPECT_NE(
      prom.find(
          "smadb_scrub_corrupt_pages{file=\"we\\\"ird\\\\dir\\nname.dat\"} "
          "3"),
      std::string::npos)
      << prom;
  LintPrometheus(prom);
}

TEST(MetricsTest, ConcurrentScrapesWhileQueriesRunAreClean) {
  // The TSan referee for the scrape path: /metrics, /debug/queries and
  // show-trace renderers race live queries. Correctness here is "no data
  // race and every render parses", not specific values.
  std::unique_ptr<db::Database> database(MakeDatabase());
  std::atomic<bool> stop{false};
  std::vector<std::thread> scrapers;
  for (int i = 0; i < 3; ++i) {
    scrapers.emplace_back([&] {
      while (!stop.load()) {
        LintPrometheus(database->ExportMetrics());
        const std::string queries = database->DumpQueries();
        EXPECT_EQ(queries.front(), '[');
        const std::string trace = database->DumpTrace();
        EXPECT_EQ(trace.front(), '[');
      }
    });
  }
  std::vector<std::thread> queriers;
  for (int i = 0; i < 2; ++i) {
    queriers.emplace_back([&] {
      for (int j = 0; j < 40; ++j) {
        Unwrap(database->Query("select grp, count(*) from t group by grp"));
      }
    });
  }
  for (auto& t : queriers) t.join();
  stop.store(true);
  for (auto& t : scrapers) t.join();
}

}  // namespace
}  // namespace smadb
