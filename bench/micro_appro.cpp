// Microbenchmarks of the admission engine hot path: savepoint-based
// transactional admission for the special (one dataset per query) and
// general (multi-dataset) cases at three instance sizes, plus the
// candidate index build.
//
// ns/query is reported via counters; `tools/bench_json` emits the same
// matrix as BENCH_appro.json for the perf trajectory.
#include <benchmark/benchmark.h>

#include "edgerep/edgerep.h"

namespace edgerep {
namespace {

Instance admission_case(std::size_t network, std::size_t queries,
                        std::size_t f_max) {
  WorkloadConfig cfg;
  cfg.network_size = network;
  cfg.min_queries = queries;
  cfg.max_queries = queries;
  cfg.min_datasets_per_query = 1;
  cfg.max_datasets_per_query = f_max;
  return generate_instance(cfg, /*seed=*/42);
}

void run_admission(benchmark::State& state, std::size_t f_max) {
  const auto network = static_cast<std::size_t>(state.range(0));
  const auto queries = static_cast<std::size_t>(state.range(1));
  const Instance inst = admission_case(network, queries, f_max);
  for (auto _ : state) {
    benchmark::DoNotOptimize(appro_g(inst));
  }
  state.counters["ns/query"] = benchmark::Counter(
      static_cast<double>(queries) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_ApproSpecialSavepoint(benchmark::State& state) {
  run_admission(state, 1);
}
void BM_ApproGeneralSavepoint(benchmark::State& state) {
  run_admission(state, 5);
}

#define APPRO_SIZES Args({32, 100})->Args({64, 250})->Args({100, 500})
BENCHMARK(BM_ApproSpecialSavepoint)->APPRO_SIZES;
BENCHMARK(BM_ApproGeneralSavepoint)->APPRO_SIZES;
#undef APPRO_SIZES

void BM_CandidateIndexBuild(benchmark::State& state) {
  const Instance inst = admission_case(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1)), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CandidateIndex(inst));
  }
}
BENCHMARK(BM_CandidateIndexBuild)->Args({32, 100})->Args({100, 500});

}  // namespace
}  // namespace edgerep

BENCHMARK_MAIN();
