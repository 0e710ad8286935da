// Shared test scaffolding: a small in-memory database fixture, synthetic
// tables with controllable clustering, and brute-force reference
// implementations the SMA machinery and the operators are checked against.

#ifndef SMADB_TESTS_TEST_UTIL_H_
#define SMADB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "expr/predicate.h"
#include "planner/planner.h"
#include "sma/builder.h"
#include "sma/grade.h"
#include "sma/sma_set.h"
#include "storage/catalog.h"
#include "storage/file_disk.h"
#include "util/rng.h"

namespace smadb::testing {

/// Unwraps a Result in a test; aborts the test binary on error (there is no
/// value to continue with, so failing soft would be undefined behaviour).
template <typename T>
T Unwrap(util::Result<T> r) {
  if (!r.ok()) {
    ADD_FAILURE() << "Unwrap of failed Result: " << r.status().ToString();
    std::abort();
  }
  return std::move(r).value();
}

inline void ExpectOk(const util::Status& s) {
  EXPECT_TRUE(s.ok()) << s.ToString();
}

/// RAII temp directory (mkdtemp; removed recursively on destruction). The
/// scaffolding for file-backend fixtures and the durability suite.
struct ScopedTempDir {
  ScopedTempDir() {
    char tmpl[] = "/tmp/smadb_test_XXXXXX";
    const char* d = ::mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    path = d != nullptr ? d : "";
  }
  ~ScopedTempDir() {
    if (!path.empty()) {
      std::error_code ec;  // best-effort; never throw from a destructor
      std::filesystem::remove_all(path, ec);
    }
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  std::string path;
};

/// Storage + pool + catalog test fixture. Defaults to the simulated backend;
/// pass BackendKind::kFile to run the identical test against real files in a
/// scoped temp directory (the fault matrix does both).
struct TestDb {
  explicit TestDb(size_t pool_pages = 4096,
                  storage::BackendKind kind = storage::BackendKind::kSimulated)
      : backend(MakeBackend(kind, tmpdir.path)),
        disk(*backend),
        pool(backend.get(), pool_pages),
        catalog(&pool) {}

  static std::unique_ptr<storage::DiskBackend> MakeBackend(
      storage::BackendKind kind, const std::string& dir) {
    if (kind == storage::BackendKind::kFile) {
      return Unwrap(storage::FileDiskManager::Open(dir + "/pages"));
    }
    return std::make_unique<storage::SimulatedDisk>();
  }

  ScopedTempDir tmpdir;  // must outlive (so: precede) the backend
  std::unique_ptr<storage::DiskBackend> backend;
  storage::DiskBackend& disk;
  storage::BufferPool pool;
  storage::Catalog catalog;
};

/// Schema used by most synthetic tests:
///   (k int64, d date, v decimal, grp char(1), tag char(4))
inline storage::Schema SyntheticSchema() {
  return storage::Schema({
      storage::Field::Int64("k"),
      storage::Field::Date("d"),
      storage::Field::Decimal("v"),
      storage::Field::String("grp", 1),
      storage::Field::String("tag", 4),
  });
}

enum class Layout {
  kClustered,   // d strictly increases with position
  kNoisy,       // d increases with jitter (diagonal clustering)
  kRandom,      // d uniform random
};

/// Populates `n` rows into a fresh synthetic table.
/// d spans ~[0, n/8] days; v = k*3 cents; grp in {A,B,C}; tag in 4 values.
inline storage::Table* MakeSyntheticTable(TestDb* db, int64_t n, Layout layout,
                                          uint64_t seed = 11,
                                          uint32_t bucket_pages = 1,
                                          const std::string& name = "t") {
  storage::Table* table =
      Unwrap(db->catalog.CreateTable(name, SyntheticSchema(),
                                     storage::TableOptions{bucket_pages}));
  util::Rng rng(seed);
  static const char* kTags[] = {"MAIL", "RAIL", "SHIP", "AIR"};
  storage::TupleBuffer t(&table->schema());
  for (int64_t i = 0; i < n; ++i) {
    int32_t day;
    switch (layout) {
      case Layout::kClustered:
        day = static_cast<int32_t>(i / 8);
        break;
      case Layout::kNoisy:
        day = static_cast<int32_t>(i / 8 + rng.Uniform(-2, 2));
        break;
      case Layout::kRandom:
      default:
        day = static_cast<int32_t>(rng.Uniform(0, n / 8));
        break;
    }
    t.SetInt64(0, i);
    t.SetDate(1, util::Date(day));
    t.SetDecimal(2, util::Decimal(i * 3));
    const char grp = static_cast<char>('A' + rng.Uniform(0, 2));
    t.SetString(3, std::string_view(&grp, 1));
    t.SetString(4, kTags[rng.Uniform(0, 3)]);
    ExpectOk(table->Append(t));
  }
  return table;
}

/// Brute-force reference: does every / any / no tuple of `bucket` satisfy
/// `pred`? Returns {all, any}.
inline std::pair<bool, bool> BucketTruth(storage::Table* table,
                                         uint32_t bucket,
                                         const expr::Predicate& pred) {
  bool all = true, any = false;
  EXPECT_TRUE(table
                  ->ForEachTupleInBucket(
                      bucket,
                      [&](const storage::TupleRef& t, storage::Rid) {
                        const bool sat = pred.Eval(t);
                        all &= sat;
                        any |= sat;
                      })
                  .ok());
  return {all, any};
}

/// Soundness check of one grade against brute force: qualifying buckets
/// must be all-satisfying, disqualifying buckets must be none-satisfying.
inline void ExpectGradeSound(storage::Table* table, uint32_t bucket,
                             const expr::Predicate& pred, sma::Grade grade) {
  const auto [all, any] = BucketTruth(table, bucket, pred);
  switch (grade) {
    case sma::Grade::kQualifies:
      EXPECT_TRUE(all) << "bucket " << bucket
                       << " graded qualifies but has non-matching tuples";
      break;
    case sma::Grade::kDisqualifies:
      EXPECT_FALSE(any) << "bucket " << bucket
                        << " graded disqualifies but has matching tuples";
      break;
    case sma::Grade::kAmbivalent:
      break;  // always sound
  }
}

/// Compares a maintained SMA against a fresh bulk rebuild over the table's
/// current contents. Groups the maintainer created but whose tuples have
/// since disappeared (moved or deleted) won't be rediscovered by a rebuild;
/// such groups must hold only identity entries.
inline void ExpectSmaEqualsRebuild(storage::Table* table,
                                   const sma::Sma& maintained) {
  sma::SmaSpec spec = maintained.spec();
  spec.name += "_rebuild";
  auto rebuilt_r = sma::BuildSma(table, std::move(spec));
  ASSERT_TRUE(rebuilt_r.ok()) << rebuilt_r.status().ToString();
  const auto& rebuilt = *rebuilt_r;
  ASSERT_EQ(maintained.num_buckets(), rebuilt->num_buckets());
  ASSERT_LE(rebuilt->num_groups(), maintained.num_groups())
      << maintained.spec().name;
  for (size_t g = 0; g < maintained.num_groups(); ++g) {
    const int64_t rg = rebuilt->FindGroup(maintained.group_key(g));
    for (uint64_t b = 0; b < maintained.num_buckets(); ++b) {
      const int64_t got = Unwrap(maintained.group_file(g)->Get(b));
      const int64_t want =
          rg >= 0 ? Unwrap(rebuilt->group_file(static_cast<size_t>(rg))
                               ->Get(b))
                  : maintained.IdentityEntry();
      EXPECT_EQ(got, want) << maintained.spec().name << " group " << g
                           << " bucket " << b;
    }
  }
}

/// Serializes values as "v|v|...|" — the row form every DrainRows and
/// reference comparison uses.
inline std::string RowString(const std::vector<util::Value>& values) {
  std::string row;
  for (const util::Value& v : values) row += v.ToString() + '|';
  return row;
}

/// The rows of a query result, serialized, in result order.
inline std::vector<std::string> RowsOf(const plan::QueryResult& result) {
  std::vector<std::string> rows;
  for (const storage::TupleBuffer& buf : result.rows) {
    const storage::TupleRef t = buf.AsRef();
    std::vector<util::Value> values;
    for (size_t c = 0; c < result.schema->num_fields(); ++c) {
      values.push_back(t.GetValue(c));
    }
    rows.push_back(RowString(values));
  }
  return rows;
}

/// Runs `op` to completion (plan::RunToCompletion) and serializes its rows
/// in output order.
inline std::vector<std::string> DrainRows(exec::Operator* op) {
  auto result = plan::RunToCompletion(op);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? RowsOf(*result) : std::vector<std::string>{};
}

inline std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// --- brute-force references ------------------------------------------------
// Tuple-at-a-time walks over Table::ForEachTupleInBucket with the scalar
// Predicate::Eval / Expr::EvalInt evaluators. They share no code with
// src/exec (AggSpec is read as a plain description), so every operator —
// and every batch kernel — is checked against an independent answer.

/// The tuples of `table` satisfying `pred`, serialized, in physical
/// (bucket, page, slot) order — the order every scan produces.
inline std::vector<std::string> ReferenceSelect(storage::Table* table,
                                                const expr::Predicate& pred) {
  std::vector<std::string> rows;
  for (uint32_t b = 0; b < table->num_buckets(); ++b) {
    ExpectOk(table->ForEachTupleInBucket(
        b, [&](const storage::TupleRef& t, storage::Rid) {
          if (!pred.Eval(t)) return;
          std::vector<util::Value> values;
          for (size_t c = 0; c < table->schema().num_fields(); ++c) {
            values.push_back(t.GetValue(c));
          }
          rows.push_back(RowString(values));
        }));
  }
  return rows;
}

/// `select <group_by>, <aggs> from table where pred group by <group_by>`,
/// one serialized row per group with at least one matching tuple, sorted.
/// Sums, averages, minima and maxima follow the engine's documented
/// semantics: integral-family arithmetic on raw values (decimals in cents),
/// avg = sum / count finalized last, min/max in the argument's type.
inline std::vector<std::string> ReferenceAggregate(
    storage::Table* table, const expr::Predicate& pred,
    const std::vector<size_t>& group_by,
    const std::vector<exec::AggSpec>& aggs) {
  struct Group {
    std::vector<util::Value> key;
    int64_t count = 0;
    std::vector<int64_t> sum;
    std::vector<std::optional<int64_t>> min, max;
  };
  std::map<std::string, Group> groups;
  for (uint32_t b = 0; b < table->num_buckets(); ++b) {
    ExpectOk(table->ForEachTupleInBucket(
        b, [&](const storage::TupleRef& t, storage::Rid) {
          if (!pred.Eval(t)) return;
          std::vector<util::Value> key;
          for (size_t col : group_by) key.push_back(t.GetValue(col));
          Group& g = groups[RowString(key)];
          if (g.count++ == 0) {
            g.key = key;
            g.sum.assign(aggs.size(), 0);
            g.min.assign(aggs.size(), std::nullopt);
            g.max.assign(aggs.size(), std::nullopt);
          }
          for (size_t i = 0; i < aggs.size(); ++i) {
            if (aggs[i].arg == nullptr) continue;  // count(*)
            const int64_t v = aggs[i].arg->EvalInt(t);
            g.sum[i] += v;
            g.min[i] = std::min(g.min[i].value_or(v), v);
            g.max[i] = std::max(g.max[i].value_or(v), v);
          }
        }));
  }
  // A raw integral value in `type`'s own Value form.
  const auto typed = [](util::TypeId type, int64_t v) {
    switch (type) {
      case util::TypeId::kInt32:
        return util::Value::Int32(static_cast<int32_t>(v));
      case util::TypeId::kDate:
        return util::Value::MakeDate(util::Date(static_cast<int32_t>(v)));
      case util::TypeId::kDecimal:
        return util::Value::MakeDecimal(util::Decimal(v));
      default:
        return util::Value::Int64(v);
    }
  };
  std::vector<std::string> rows;
  for (const auto& [skey, g] : groups) {
    std::vector<util::Value> values = g.key;
    for (size_t i = 0; i < aggs.size(); ++i) {
      const util::TypeId type =
          aggs[i].arg != nullptr ? aggs[i].arg->type() : util::TypeId::kInt64;
      switch (aggs[i].kind) {
        case exec::AggKind::kCount:
          values.push_back(util::Value::Int64(g.count));
          break;
        case exec::AggKind::kSum:
          values.push_back(typed(type == util::TypeId::kDecimal
                                     ? type
                                     : util::TypeId::kInt64,
                                 g.sum[i]));
          break;
        case exec::AggKind::kAvg: {
          double sum = static_cast<double>(g.sum[i]);
          if (type == util::TypeId::kDecimal) sum /= 100.0;
          values.push_back(
              util::Value::MakeDouble(sum / static_cast<double>(g.count)));
          break;
        }
        case exec::AggKind::kMin:
          values.push_back(typed(type, *g.min[i]));
          break;
        case exec::AggKind::kMax:
          values.push_back(typed(type, *g.max[i]));
          break;
      }
    }
    rows.push_back(RowString(values));
  }
  return Sorted(std::move(rows));
}

/// Builds and registers min/max SMAs on column `col_name` of `table`.
inline void AddMinMaxSmas(storage::Table* table, sma::SmaSet* smas,
                          const std::string& col_name,
                          const std::string& prefix = "") {
  const expr::ExprPtr col =
      Unwrap(expr::Column(&table->schema(), col_name));
  ExpectOk(smas->Add(Unwrap(
      sma::BuildSma(table, sma::SmaSpec::Min(prefix + "min_" + col_name,
                                             col)))));
  ExpectOk(smas->Add(Unwrap(
      sma::BuildSma(table, sma::SmaSpec::Max(prefix + "max_" + col_name,
                                             col)))));
}

}  // namespace smadb::testing

#endif  // SMADB_TESTS_TEST_UTIL_H_
