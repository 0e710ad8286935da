// Micro-benchmarks (google-benchmark): grade() throughput bucket by bucket
// and a morsel at a time, SMA-file cursor scans, predicate evaluation — the
// primitives the operators are built on.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include <algorithm>
#include <vector>

#include "exec/bucket_source.h"
#include "expr/predicate.h"
#include "sma/builder.h"
#include "sma/grade.h"
#include "storage/catalog.h"
#include "tpch/loader.h"

namespace {

using namespace smadb;  // NOLINT

// Shared fixture data (built once).
struct MicroEnv {
  storage::SimulatedDisk disk;
  storage::BufferPool pool{&disk, 16384};
  storage::Catalog catalog{&pool};
  storage::Table* lineitem = nullptr;
  std::unique_ptr<sma::SmaSet> smas;
  expr::PredicatePtr pred;

  MicroEnv() {
    tpch::LoadOptions load;
    load.mode = tpch::ClusterMode::kDiagonal;
    auto table =
        tpch::GenerateAndLoadLineItem(&catalog, {0.005, 7}, load);
    lineitem = *table;
    smas = std::make_unique<sma::SmaSet>(lineitem);
    const expr::ExprPtr shipdate =
        *expr::Column(&lineitem->schema(), "l_shipdate");
    (void)smas->Add(
        *sma::BuildSma(lineitem, sma::SmaSpec::Min("min", shipdate)));
    (void)smas->Add(
        *sma::BuildSma(lineitem, sma::SmaSpec::Max("max", shipdate)));
    pred = *expr::Predicate::AtomConst(
        &lineitem->schema(), "l_shipdate", expr::CmpOp::kLe,
        util::Value::MakeDate(util::Date::FromYmd(1995, 6, 17)));
  }
};

MicroEnv* Env() {
  static MicroEnv env;
  return &env;
}

void BM_GradeBucketStream(benchmark::State& state) {
  MicroEnv* env = Env();
  for (auto _ : state) {
    auto grader = sma::BucketGrader::Create(env->pred, env->smas.get());
    uint64_t counts[3] = {0, 0, 0};
    for (uint64_t b = 0; b < env->lineitem->num_buckets(); ++b) {
      auto g = grader->GradeBucket(b);
      ++counts[static_cast<int>(*g)];
    }
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env->lineitem->num_buckets()));
}
BENCHMARK(BM_GradeBucketStream);

// The same census graded a morsel at a time, as the operators grade it.
void BM_GradeRangeStream(benchmark::State& state) {
  MicroEnv* env = Env();
  const uint64_t buckets = env->lineitem->num_buckets();
  const uint64_t per = exec::BucketsPerMorsel(env->lineitem->bucket_pages());
  std::vector<sma::Grade> grades(per);
  for (auto _ : state) {
    auto grader = sma::BucketGrader::Create(env->pred, env->smas.get());
    uint64_t counts[3] = {0, 0, 0};
    for (uint64_t first = 0; first < buckets; first += per) {
      const uint64_t end = std::min(buckets, first + per);
      (void)grader->GradeRange(first, end, grades.data());
      for (uint64_t k = 0; k < end - first; ++k) {
        ++counts[static_cast<int>(grades[k])];
      }
    }
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(buckets));
}
BENCHMARK(BM_GradeRangeStream);

void BM_SmaFileCursorScan(benchmark::State& state) {
  MicroEnv* env = Env();
  const sma::Sma* min_sma = *env->smas->Find("min");
  for (auto _ : state) {
    sma::SmaFile::Cursor cur = min_sma->group_file(0)->NewCursor();
    int64_t acc = 0;
    for (uint64_t i = 0; i < min_sma->group_file(0)->num_entries(); ++i) {
      acc += *cur.Get(i);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(min_sma->group_file(0)->num_entries()));
}
BENCHMARK(BM_SmaFileCursorScan);

void BM_PredicateEvalPerTuple(benchmark::State& state) {
  MicroEnv* env = Env();
  for (auto _ : state) {
    uint64_t matches = 0;
    for (uint32_t b = 0; b < env->lineitem->num_buckets(); ++b) {
      (void)env->lineitem->ForEachTupleInBucket(
          b, [&](const storage::TupleRef& t, storage::Rid) {
            matches += env->pred->Eval(t);
          });
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env->lineitem->num_tuples()));
}
BENCHMARK(BM_PredicateEvalPerTuple);

}  // namespace

// Expanded BENCHMARK_MAIN so the run leaves a BENCH_micro.json marker like
// every other bench binary (google-benchmark prints its own tables).
int main(int argc, char** argv) {
  smadb::bench::JsonReporter report(argv[0]);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
