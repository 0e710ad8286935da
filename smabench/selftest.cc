// Self-tests of the benchmark's own parts: seeded determinism of requests
// and data, the order-statistics helpers, and the answer comparator.
//
//   cmake --build .bench_build --target smabench_selftest
//   .bench_build/smabench_selftest      (or: python3 smabench/run.py --self-test)

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "db/database.h"
#include "harness.h"
#include "tpch/loader.h"

namespace smabench {
namespace {

using namespace smadb;  // NOLINT

std::vector<std::string> Sqls(const std::vector<QueryInstance>& v) {
  std::vector<std::string> out;
  for (const QueryInstance& q : v) out.push_back(q.sql);
  return out;
}

std::vector<size_t> Requests(size_t pool, uint64_t seed, int client,
                             size_t n) {
  RequestStream stream(pool, seed, client);
  std::vector<size_t> out;
  for (size_t i = 0; i < n; ++i) out.push_back(stream.Next());
  return out;
}

TEST(Determinism, SameSeedSameRequestSequence) {
  for (const std::string& name : WorkloadNames()) {
    const WorkloadConfig w = *FindWorkload(name);
    const auto a = MakeInstances(w, 42);
    EXPECT_EQ(Sqls(a), Sqls(MakeInstances(w, 42))) << name;
    EXPECT_NE(Sqls(a), Sqls(MakeInstances(w, 43))) << name;
    for (int c = 0; c < w.clients; ++c) {
      EXPECT_EQ(Requests(a.size(), 42, c, 500), Requests(a.size(), 42, c, 500));
      EXPECT_NE(Requests(a.size(), 42, c, 500), Requests(a.size(), 43, c, 500));
    }
  }
  // Clients of one run do not send in lockstep.
  EXPECT_NE(Requests(40, 42, 0, 100), Requests(40, 42, 1, 100));
}

TEST(Determinism, EachPassSendsEveryInstanceOnce) {
  RequestStream stream(17, 5, 0);
  for (int pass = 0; pass < 3; ++pass) {
    std::multiset<size_t> seen;
    for (int i = 0; i < 17; ++i) seen.insert(stream.Next());
    EXPECT_EQ(seen.size(), 17u);
    EXPECT_EQ(std::set<size_t>(seen.begin(), seen.end()).size(), 17u);
  }
}

TEST(Determinism, SameSeedSameData) {
  auto load = [](uint64_t seed) {
    auto db = std::make_unique<db::Database>();
    tpch::LoadOptions opts;
    opts.mode = tpch::ClusterMode::kDiagonal;
    opts.seed = SubSeed(seed, 2);
    storage::Table* t = tpch::GenerateAndLoadLineItem(
                            db->catalog(), {0.002, SubSeed(seed, 1)}, opts)
                            .value();
    // Physical order matters (it decides the SMA grades), so fold the
    // first rows' keys in as well as whole-table aggregates.
    auto r = db->Query(
        "select count(*), sum(l_extendedprice), sum(l_quantity) "
        "from lineitem");
    return std::to_string(t->num_pages()) + "|" + r->ToString() + "|" +
           db->Query("select * from lineitem where l_shipdate < "
                     "date '1992-02-01'")
               ->ToString();
  };
  const std::string a = load(11);
  EXPECT_EQ(a, load(11));
  EXPECT_NE(a, load(12));
}

TEST(Instances, MixAndHorizon) {
  const auto dash = MakeInstances(*FindWorkload("dashboard"), 3);
  std::map<std::string, int> classes;
  for (const QueryInstance& q : dash) ++classes[q.cls];
  EXPECT_EQ(classes["q1"], 8);
  EXPECT_EQ(classes["month"], 16);
  EXPECT_EQ(classes["quarter"], 8);
  EXPECT_EQ(classes["week"], 8);
  // Ingest readers never look at or past September 1998.
  for (const QueryInstance& q : MakeInstances(*FindWorkload("ingest"), 3)) {
    for (size_t pos = q.sql.find("date '"); pos != std::string::npos;
         pos = q.sql.find("date '", pos + 1)) {
      EXPECT_LE(q.sql.substr(pos + 6, 10), "1998-09-01") << q.sql;
    }
  }
}

TEST(Stats, MedianAndPercentile) {
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 0.95), 7.0);
  EXPECT_EQ(SupportedPercentile(19), "none");
  EXPECT_EQ(SupportedPercentile(20), "p50");
  EXPECT_EQ(SupportedPercentile(200), "p95");
  EXPECT_EQ(SupportedPercentile(1000), "p99");
}

TEST(Stats, QuartilesMatchPythonStatistics) {
  // Expected values from statistics.quantiles(data, n=4).
  const auto expect = [](std::vector<double> data, std::array<double, 3> want) {
    const auto got = Quartiles(std::move(data));
    for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(got[i], want[i]) << i;
  };
  expect({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {2.75, 5.5, 8.25});
  expect({1, 2}, {0.75, 1.5, 2.25});
  expect({5, 1, 4, 2, 3}, {1.5, 3.0, 4.5});
  expect({0.3, 1.7, 2.2, 9.0, 4.4, 5.1, 0.9}, {0.9, 2.2, 5.1});
}

TEST(Comparator, RowOrderDoesNotMatterButContentDoes) {
  const RowSet ref = ToRowSet("a | n\nR | 5\nA | 3\nN | 9\n");
  EXPECT_EQ(ref, ToRowSet("a | n\nN | 9\nR | 5\nA | 3\n"));
  EXPECT_NE(ref, ToRowSet("a | n\nR | 5\nA | 4\nN | 9\n"));  // changed value
  EXPECT_NE(ref, ToRowSet("a | n\nR | 5\nA | 3\n"));         // missing row
  EXPECT_NE(ref, ToRowSet("a | n\nR | 5\nA | 3\nN | 9\nN | 9\n"));
  EXPECT_NE(ref, ToRowSet("a | m\nR | 5\nA | 3\nN | 9\n"));  // header
}

TEST(Format, NumbersRoundTrip) {
  EXPECT_EQ(FormatNumber(1.25), "1.25");
  EXPECT_EQ(FormatNumber(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(FormatNumber(3), "3");
}

}  // namespace
}  // namespace smabench
