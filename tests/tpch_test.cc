// Unit tests for the TPC-D data generator and loader: cardinalities, the
// distribution clauses the experiments rely on, string-capacity safety, and
// the clustering modes.

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/test_util.h"
#include "tpch/dbgen.h"
#include "tpch/loader.h"
#include "tpch/schemas.h"
#include "tpch/text.h"
#include "util/string_util.h"

namespace smadb::tpch {
namespace {

using testing::ExpectOk;
using testing::TestDb;
using testing::Unwrap;
using util::Date;

TEST(DbgenTest, CardinalitiesScaleWithSf) {
  Dbgen gen({0.01, 1});
  EXPECT_EQ(gen.num_orders(), 15000);
  EXPECT_EQ(gen.num_customers(), 1500);
  EXPECT_EQ(gen.num_parts(), 2000);
  EXPECT_EQ(gen.num_suppliers(), 100);
}

TEST(DbgenTest, Deterministic) {
  Dbgen a({0.001, 42}), b({0.001, 42});
  std::vector<OrderRow> oa, ob;
  std::vector<LineItemRow> la, lb;
  a.GenOrdersAndLineItems(&oa, &la);
  b.GenOrdersAndLineItems(&ob, &lb);
  ASSERT_EQ(la.size(), lb.size());
  for (size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].orderkey, lb[i].orderkey);
    EXPECT_EQ(la[i].shipdate.days(), lb[i].shipdate.days());
    EXPECT_EQ(la[i].extendedprice.cents(), lb[i].extendedprice.cents());
    EXPECT_EQ(la[i].comment, lb[i].comment);
  }
}

struct GeneratedData : ::testing::Test {
  static void SetUpTestSuite() {
    orders = new std::vector<OrderRow>();
    lineitems = new std::vector<LineItemRow>();
    Dbgen gen({0.002, 7});
    gen.GenOrdersAndLineItems(orders, lineitems);
  }
  static void TearDownTestSuite() {
    delete orders;
    delete lineitems;
    orders = nullptr;
    lineitems = nullptr;
  }

  static std::vector<OrderRow>* orders;
  static std::vector<LineItemRow>* lineitems;
};

std::vector<OrderRow>* GeneratedData::orders = nullptr;
std::vector<LineItemRow>* GeneratedData::lineitems = nullptr;

TEST_F(GeneratedData, LineItemsPerOrderWithinSpec) {
  std::map<int64_t, int> per_order;
  for (const auto& li : *lineitems) ++per_order[li.orderkey];
  EXPECT_EQ(per_order.size(), orders->size());
  for (const auto& [k, n] : per_order) {
    EXPECT_GE(n, 1);
    EXPECT_LE(n, 7);
  }
  // Mean should be near 4.
  const double mean =
      static_cast<double>(lineitems->size()) /
      static_cast<double>(orders->size());
  EXPECT_NEAR(mean, 4.0, 0.3);
}

TEST_F(GeneratedData, DateRelationsFollowSpec) {
  for (const auto& li : *lineitems) {
    const OrderRow& o = (*orders)[static_cast<size_t>(li.orderkey - 1)];
    ASSERT_EQ(o.orderkey, li.orderkey);
    // shipdate = orderdate + [1, 121]
    const int ship_lag = li.shipdate - o.orderdate;
    EXPECT_GE(ship_lag, 1);
    EXPECT_LE(ship_lag, 121);
    // commitdate = orderdate + [30, 90]
    const int commit_lag = li.commitdate - o.orderdate;
    EXPECT_GE(commit_lag, 30);
    EXPECT_LE(commit_lag, 90);
    // receiptdate = shipdate + [1, 30]
    const int receipt_lag = li.receiptdate - li.shipdate;
    EXPECT_GE(receipt_lag, 1);
    EXPECT_LE(receipt_lag, 30);
    // Everything within the 1992..1998 calendar.
    EXPECT_GE(o.orderdate, kStartDate);
    EXPECT_LE(li.receiptdate, kEndDate);
  }
}

TEST_F(GeneratedData, ReturnFlagAndLineStatusRules) {
  int n_flags = 0, r_flags = 0, a_flags = 0;
  for (const auto& li : *lineitems) {
    if (li.receiptdate <= kCurrentDate) {
      EXPECT_TRUE(li.returnflag == 'R' || li.returnflag == 'A');
      (li.returnflag == 'R' ? r_flags : a_flags) += 1;
    } else {
      EXPECT_EQ(li.returnflag, 'N');
      ++n_flags;
    }
    EXPECT_EQ(li.linestatus, li.shipdate > kCurrentDate ? 'O' : 'F');
  }
  // All three flags occur, R/A split roughly even.
  EXPECT_GT(n_flags, 0);
  EXPECT_GT(r_flags, 0);
  EXPECT_GT(a_flags, 0);
  EXPECT_NEAR(static_cast<double>(r_flags) / (r_flags + a_flags), 0.5, 0.05);
}

TEST_F(GeneratedData, MoneyColumnsWithinSpec) {
  for (const auto& li : *lineitems) {
    EXPECT_GE(li.quantity.cents(), 100);
    EXPECT_LE(li.quantity.cents(), 5000);
    EXPECT_GE(li.discount.cents(), 0);
    EXPECT_LE(li.discount.cents(), 10);
    EXPECT_GE(li.tax.cents(), 0);
    EXPECT_LE(li.tax.cents(), 8);
    // extendedprice = quantity * retailprice(partkey)
    EXPECT_EQ(li.extendedprice.cents(),
              Dbgen::RetailPrice(li.partkey).cents() *
                  (li.quantity.cents() / 100));
  }
}

TEST_F(GeneratedData, OrderStatusConsistentWithLineStatus) {
  std::map<int64_t, std::pair<int, int>> fo;  // orderkey -> (F count, total)
  for (const auto& li : *lineitems) {
    auto& [f, total] = fo[li.orderkey];
    f += li.linestatus == 'F';
    ++total;
  }
  for (const auto& o : *orders) {
    const auto& [f, total] = fo[o.orderkey];
    if (f == total) {
      EXPECT_EQ(o.orderstatus, 'F');
    } else if (f == 0) {
      EXPECT_EQ(o.orderstatus, 'O');
    } else {
      EXPECT_EQ(o.orderstatus, 'P');
    }
  }
}

// Every generated string must fit its storage column — the Release build
// memcpys without bounds checks, so this is the regression test for the
// o_comment overflow class of bug.
TEST_F(GeneratedData, AllStringsFitTheirColumns) {
  const storage::Schema li_schema = LineItemSchema();
  for (const auto& li : *lineitems) {
    EXPECT_LE(li.shipinstruct.size(),
              li_schema.field(lineitem::kShipInstruct).capacity);
    EXPECT_LE(li.shipmode.size(),
              li_schema.field(lineitem::kShipMode).capacity);
    EXPECT_LE(li.comment.size(),
              li_schema.field(lineitem::kComment).capacity);
  }
  const storage::Schema o_schema = OrdersSchema();
  for (const auto& o : *orders) {
    EXPECT_LE(o.orderpriority.size(),
              o_schema.field(orders::kOrderPriority).capacity);
    EXPECT_LE(o.clerk.size(), o_schema.field(orders::kClerk).capacity);
    EXPECT_LE(o.comment.size(), o_schema.field(orders::kComment).capacity);
  }
}

TEST(DbgenDimensionsTest, AllStringsFitTheirColumns) {
  Dbgen gen({0.002, 7});
  const storage::Schema c_schema = CustomerSchema();
  for (const auto& c : gen.GenCustomers()) {
    EXPECT_LE(c.name.size(), c_schema.field(customer::kName).capacity);
    EXPECT_LE(c.address.size(), c_schema.field(customer::kAddress).capacity);
    EXPECT_LE(c.phone.size(), c_schema.field(customer::kPhone).capacity);
    EXPECT_LE(c.mktsegment.size(),
              c_schema.field(customer::kMktSegment).capacity);
    EXPECT_LE(c.comment.size(), c_schema.field(customer::kComment).capacity);
  }
  const storage::Schema p_schema = PartSchema();
  for (const auto& p : gen.GenParts()) {
    EXPECT_LE(p.name.size(), p_schema.field(part::kName).capacity);
    EXPECT_LE(p.mfgr.size(), p_schema.field(part::kMfgr).capacity);
    EXPECT_LE(p.brand.size(), p_schema.field(part::kBrand).capacity);
    EXPECT_LE(p.type.size(), p_schema.field(part::kType).capacity);
    EXPECT_LE(p.container.size(), p_schema.field(part::kContainer).capacity);
    EXPECT_LE(p.comment.size(), p_schema.field(part::kComment).capacity);
  }
  const storage::Schema s_schema = SupplierSchema();
  for (const auto& s : gen.GenSuppliers()) {
    EXPECT_LE(s.name.size(), s_schema.field(supplier::kName).capacity);
    EXPECT_LE(s.address.size(), s_schema.field(supplier::kAddress).capacity);
    EXPECT_LE(s.comment.size(), s_schema.field(supplier::kComment).capacity);
  }
  const storage::Schema ps_schema = PartSuppSchema();
  for (const auto& ps : gen.GenPartSupps()) {
    EXPECT_LE(ps.comment.size(),
              ps_schema.field(partsupp::kComment).capacity);
    EXPECT_GE(ps.suppkey, 1);
    EXPECT_LE(ps.suppkey, gen.num_suppliers());
  }
}

TEST(DbgenDimensionsTest, NationsAndRegionsFixed) {
  Dbgen gen({0.001, 7});
  const auto nations = gen.GenNations();
  const auto regions = gen.GenRegions();
  ASSERT_EQ(nations.size(), 25u);
  ASSERT_EQ(regions.size(), 5u);
  EXPECT_EQ(nations[0].name, "ALGERIA");
  EXPECT_EQ(regions[2].name, "ASIA");
  for (const auto& n : nations) {
    EXPECT_GE(n.regionkey, 0);
    EXPECT_LE(n.regionkey, 4);
  }
}

TEST(TextTest, RandomTextRespectsBounds) {
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::string s = RandomText(&rng, 10, 43);
    EXPECT_GE(s.size(), 1u);   // trailing-space trim may shave a little
    EXPECT_LE(s.size(), 43u);
  }
}

TEST(TextTest, NumberedNameFormat) {
  EXPECT_EQ(NumberedName("Customer", 42), "Customer#000000042");
  EXPECT_EQ(NumberedName("Supplier", 123456789), "Supplier#123456789");
}

TEST(TextTest, PartNameHasFiveDistinctColors) {
  util::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const std::string name = RandomPartName(&rng);
    auto words = util::Split(name, ' ');
    ASSERT_EQ(words.size(), 5u);
    std::sort(words.begin(), words.end());
    EXPECT_EQ(std::unique(words.begin(), words.end()), words.end());
  }
}

// ----------------------------------------------------------------- Loader --

TEST(LoaderTest, ShipdateSortedIsSorted) {
  TestDb db;
  tpch::LoadOptions load;
  load.mode = ClusterMode::kShipdateSorted;
  storage::Table* t =
      Unwrap(GenerateAndLoadLineItem(&db.catalog, {0.002, 3}, load));
  int32_t prev = INT32_MIN;
  for (uint32_t b = 0; b < t->num_buckets(); ++b) {
    ExpectOk(t->ForEachTupleInBucket(
        b, [&](const storage::TupleRef& tup, storage::Rid) {
          const int32_t d =
              static_cast<int32_t>(tup.GetRawInt(lineitem::kShipDate));
          EXPECT_GE(d, prev);
          prev = d;
        }));
  }
}

TEST(LoaderTest, ModesPreserveMultiset) {
  Dbgen gen({0.001, 3});
  std::vector<OrderRow> orders;
  std::vector<LineItemRow> lis;
  gen.GenOrdersAndLineItems(&orders, &lis);

  auto keysum = [](storage::Table* t) {
    int64_t sum = 0;
    uint64_t n = 0;
    for (uint32_t b = 0; b < t->num_buckets(); ++b) {
      EXPECT_TRUE(t->ForEachTupleInBucket(
                       b,
                       [&](const storage::TupleRef& tup, storage::Rid) {
                         sum += tup.GetInt64(lineitem::kOrderKey) * 31 +
                                tup.GetRawInt(lineitem::kShipDate);
                         ++n;
                       })
                      .ok());
    }
    return std::make_pair(sum, n);
  };

  TestDb db;
  LoadOptions l1;
  l1.mode = ClusterMode::kOrderKey;
  LoadOptions l2;
  l2.mode = ClusterMode::kShuffled;
  LoadOptions l3;
  l3.mode = ClusterMode::kDiagonal;
  auto a = keysum(Unwrap(LoadLineItem(&db.catalog, lis, l1, "a")));
  auto b = keysum(Unwrap(LoadLineItem(&db.catalog, lis, l2, "b")));
  auto c = keysum(Unwrap(LoadLineItem(&db.catalog, lis, l3, "c")));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a.second, lis.size());
}

TEST(LoaderTest, DiagonalClusteringIsExploitable) {
  // The diagonal layout should leave far fewer ambivalent buckets than the
  // shuffled one for a narrow date predicate.
  Dbgen gen({0.005, 3});
  std::vector<OrderRow> orders;
  std::vector<LineItemRow> lis;
  gen.GenOrdersAndLineItems(&orders, &lis);

  auto ambivalent_count = [&](ClusterMode mode) {
    TestDb db;
    LoadOptions load;
    load.mode = mode;
    load.lag_stddev_days = 10.0;
    storage::Table* t = Unwrap(LoadLineItem(
        &db.catalog, lis, load, "t"));
    sma::SmaSet smas(t);
    testing::AddMinMaxSmas(t, &smas, "l_shipdate");
    auto pred = Unwrap(expr::Predicate::AtomConst(
        &t->schema(), "l_shipdate", expr::CmpOp::kLe,
        util::Value::MakeDate(Date::FromYmd(1994, 1, 1))));
    auto grader = sma::BucketGrader::Create(pred, &smas);
    uint64_t ambiv = 0;
    for (uint64_t b = 0; b < t->num_buckets(); ++b) {
      ambiv += Unwrap(grader->GradeBucket(b)) == sma::Grade::kAmbivalent;
    }
    return ambiv;
  };

  const uint64_t diagonal = ambivalent_count(ClusterMode::kDiagonal);
  const uint64_t shuffled = ambivalent_count(ClusterMode::kShuffled);
  EXPECT_LT(diagonal * 5, shuffled);  // at least 5x fewer ambivalent
}

TEST(LoaderTest, LoadAllDimensionTables) {
  TestDb db;
  Dbgen gen({0.002, 3});
  EXPECT_GT(Unwrap(LoadCustomers(&db.catalog, gen.GenCustomers()))
                ->num_tuples(),
            0u);
  EXPECT_GT(Unwrap(LoadParts(&db.catalog, gen.GenParts()))->num_tuples(), 0u);
  EXPECT_GT(
      Unwrap(LoadSuppliers(&db.catalog, gen.GenSuppliers()))->num_tuples(),
      0u);
  EXPECT_GT(
      Unwrap(LoadPartSupps(&db.catalog, gen.GenPartSupps()))->num_tuples(),
      0u);
  EXPECT_EQ(Unwrap(LoadNations(&db.catalog, gen.GenNations()))->num_tuples(),
            25u);
  EXPECT_EQ(Unwrap(LoadRegions(&db.catalog, gen.GenRegions()))->num_tuples(),
            5u);
}

TEST(LoaderTest, RoundTripThroughStorage) {
  TestDb db;
  Dbgen gen({0.001, 9});
  std::vector<OrderRow> orders;
  std::vector<LineItemRow> lis;
  gen.GenOrdersAndLineItems(&orders, &lis);
  LoadOptions load;  // orderkey order: storage order == generation order
  storage::Table* t = Unwrap(LoadLineItem(&db.catalog, lis, load, "t"));
  size_t i = 0;
  for (uint32_t b = 0; b < t->num_buckets(); ++b) {
    ExpectOk(t->ForEachTupleInBucket(
        b, [&](const storage::TupleRef& tup, storage::Rid) {
          const LineItemRow& row = lis[i++];
          EXPECT_EQ(tup.GetInt64(lineitem::kOrderKey), row.orderkey);
          EXPECT_EQ(tup.GetDecimal(lineitem::kExtendedPrice).cents(),
                    row.extendedprice.cents());
          EXPECT_EQ(tup.GetDate(lineitem::kShipDate), row.shipdate);
          EXPECT_EQ(tup.GetString(lineitem::kShipMode), row.shipmode);
          EXPECT_EQ(tup.GetString(lineitem::kComment), row.comment);
        }));
  }
  EXPECT_EQ(i, lis.size());
}

}  // namespace
}  // namespace smadb::tpch
