// Google-benchmark microbenchmarks of the hot substrate paths: RNG, graph
// shortest paths, the site-rows delay table vs the dense all-pairs matrix,
// Instance::finalize at scale, partitioning, the simplex solver, the event
// queue, and one full Appro-G placement.
#include <benchmark/benchmark.h>

#include <chrono>

#include "edgerep/edgerep.h"

namespace edgerep {
namespace {

// Scale-out substrate fixture: ~degree-8 G(n, p) so 1k–8k-node networks
// stay bench-sized, with 10% of nodes as placement sites (the paper's
// V = CL ∪ DC is a small fraction of all BS/SW/CL/DC nodes).
Graph sparse_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return gnp(n, 8.0 / static_cast<double>(n), Range{0.05, 1.0}, rng);
}

std::vector<NodeId> every_tenth_node(std::size_t n) {
  std::vector<NodeId> sources;
  sources.reserve(n / 10 + 1);
  for (std::size_t v = 0; v < n; v += 10) {
    sources.push_back(static_cast<NodeId>(v));
  }
  return sources;
}

// Unfinalized instance over the sparse graph; copies of it are finalized
// inside the timed region of the finalize benchmarks.
Instance scale_instance(std::size_t n, std::uint64_t seed) {
  Graph g = sparse_graph(n, seed);
  Instance inst(std::move(g));
  for (const NodeId v : every_tenth_node(n)) {
    inst.add_site(v, 40.0, 0.1);
  }
  const DatasetId d = inst.add_dataset(4.0, 0);
  inst.add_query(0, 1.0, 100.0, {{d, 0.5}});
  return inst;
}

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next());
  }
}
BENCHMARK(BM_RngNext);

void BM_RngZipf(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.zipf(100000, 1.1));
  }
}
BENCHMARK(BM_RngZipf);

void BM_Dijkstra(benchmark::State& state) {
  Rng rng(3);
  const Graph g = gnp(static_cast<std::size_t>(state.range(0)), 0.1,
                      Range{0.1, 1.0}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(g, 0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Dijkstra)->Range(64, 1024)->Complexity();

void BM_DelayMatrix(benchmark::State& state) {
  Rng rng(4);
  const Graph g = gnp(static_cast<std::size_t>(state.range(0)), 0.1,
                      Range{0.1, 1.0}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DelayMatrix::compute(g, /*parallel=*/true));
  }
}
BENCHMARK(BM_DelayMatrix)->Arg(128)->Arg(256);

void BM_DelayTableSiteRows(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Graph g = sparse_graph(n, 8);
  g.seal();
  const auto sources = every_tenth_node(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DelayTable::compute(g, sources));
  }
}
BENCHMARK(BM_DelayTableSiteRows)
    ->Arg(1024)->Arg(2048)->Arg(4096)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

void BM_DelayMatrixDenseAtScale(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Graph g = sparse_graph(n, 8);
  g.seal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DelayMatrix::compute(g));
  }
}
BENCHMARK(BM_DelayMatrixDenseAtScale)
    ->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

// finalize = validation + graph seal + delay precompute for the selected
// backend.  Copies of the unfinalized proto are made outside the manual
// timer, so only finalize() itself is measured.
void finalize_bench(benchmark::State& state, DelayBackend backend) {
  Instance proto = scale_instance(static_cast<std::size_t>(state.range(0)), 9);
  proto.set_delay_backend(backend);
  for (auto _ : state) {
    Instance inst = proto;
    const auto t0 = std::chrono::steady_clock::now();
    inst.finalize();
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(
        std::chrono::duration<double>(t1 - t0).count());
    benchmark::DoNotOptimize(inst);
  }
}

void BM_InstanceFinalizeSiteRows(benchmark::State& state) {
  finalize_bench(state, DelayBackend::kSiteRows);
}
BENCHMARK(BM_InstanceFinalizeSiteRows)
    ->Arg(1024)->Arg(2048)->Arg(4096)->Arg(8192)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_InstanceFinalizeDense(benchmark::State& state) {
  finalize_bench(state, DelayBackend::kDense);
}
BENCHMARK(BM_InstanceFinalizeDense)
    ->Arg(1024)->Arg(2048)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_PartitionGraph(benchmark::State& state) {
  Rng rng(5);
  PartitionProblem p;
  p.num_vertices = static_cast<std::size_t>(state.range(0));
  p.vertex_weight.assign(p.num_vertices, 1.0);
  for (std::uint32_t u = 0; u < p.num_vertices; ++u) {
    for (std::uint32_t v = u + 1; v < p.num_vertices; ++v) {
      if (rng.bernoulli(0.05)) p.edges.push_back({u, v, rng.uniform(0.1, 2.0)});
    }
  }
  p.num_parts = 8;
  p.part_capacity.assign(8, static_cast<double>(p.num_vertices) / 6.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition_graph(p));
  }
}
BENCHMARK(BM_PartitionGraph)->Arg(100)->Arg(400);

void BM_SimplexRandomLp(benchmark::State& state) {
  Rng rng(6);
  LinearProgram lp;
  lp.num_vars = static_cast<std::size_t>(state.range(0));
  lp.objective.resize(lp.num_vars);
  for (auto& c : lp.objective) c = rng.uniform(0.0, 1.0);
  for (std::size_t j = 0; j < lp.num_vars; ++j) lp.add_upper_bound(j, 2.0);
  for (std::size_t c = 0; c < lp.num_vars; ++c) {
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t j = 0; j < lp.num_vars; ++j) {
      terms.push_back({j, rng.uniform(0.0, 1.0)});
    }
    lp.add_constraint(std::move(terms), Relation::kLe,
                      rng.uniform(1.0, 10.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_lp(lp));
  }
}
BENCHMARK(BM_SimplexRandomLp)->Arg(20)->Arg(50);

void BM_ApproGPlacement(benchmark::State& state) {
  WorkloadConfig cfg;
  cfg.network_size = static_cast<std::size_t>(state.range(0));
  cfg.min_queries = 100;
  cfg.max_queries = 100;
  cfg.max_datasets_per_query = 5;
  const Instance inst = generate_instance(cfg, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(appro_g(inst));
  }
}
BENCHMARK(BM_ApproGPlacement)->Arg(32)->Arg(100);

void BM_GenerateInstance(benchmark::State& state) {
  WorkloadConfig cfg;
  cfg.network_size = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_instance(cfg, ++seed));
  }
}
BENCHMARK(BM_GenerateInstance)->Arg(32)->Arg(100);

void BM_SimulateTestbed(benchmark::State& state) {
  const Instance inst = make_testbed_instance(TestbedWorkloadConfig{}, 7);
  const ReplicaPlan plan = appro_g(inst).plan;
  SimConfig cfg;
  cfg.capacity_factor = 0.9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(plan, cfg));
  }
}
BENCHMARK(BM_SimulateTestbed);

}  // namespace
}  // namespace edgerep

BENCHMARK_MAIN();
