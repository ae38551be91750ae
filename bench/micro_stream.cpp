// Microbenchmarks of the streaming admission plane's hot paths.
//
// The pricing-kernel benches pit the vectorized SoA scan against the scalar
// oracle on identical candidate sets (the kernel must win by >=2x at 64+
// candidates while staying bit-identical — the identity is enforced by
// tests/core/pricing_test.cpp, the speed by this bench).  The end-to-end
// benches run the full micro-epoch loop at several shard counts; ns/query
// counters make the shard sweep directly comparable.
#include <benchmark/benchmark.h>

#include <vector>

#include "edgerep/edgerep.h"

namespace edgerep {
namespace {

/// A pricing problem with `n` candidates over `2n` sites, deterministic per
/// size.  The demanded dataset holds 16 replicas — plan-realistic density:
/// replica lists are short relative to the site count, which is exactly the
/// asymmetry the kernel's byte mask exploits over the reference walk's
/// linear has_replica scan.
struct KernelCase {
  std::vector<SiteId> site;
  std::vector<double> dod;
  std::vector<double> theta;
  std::vector<double> inv_avail;  // per site: 1 / avail
  std::vector<double> avail;
  std::vector<double> load;
  std::vector<SiteId> replicas;

  explicit KernelCase(std::size_t n) {
    Rng rng(0xbe9c5ULL + n);
    const std::size_t sites = 2 * n;
    theta.resize(sites);
    inv_avail.resize(sites);
    avail.resize(sites);
    load.resize(sites);
    for (std::size_t s = 0; s < sites; ++s) {
      theta[s] = rng.uniform(0.0, 2.0);
      avail[s] = rng.uniform(50.0, 100.0);
      inv_avail[s] = 1.0 / avail[s];
      load[s] = rng.uniform(0.0, avail[s]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      site.push_back(static_cast<SiteId>(2 * i));
      dod.push_back(rng.uniform(0.0, 1.0));
    }
    for (const std::size_t s : rng.sample_indices(sites, 16)) {
      replicas.push_back(static_cast<SiteId>(s));
    }
  }

  [[nodiscard]] CandidateSoA soa() const { return {site, dod}; }
};

void BM_PriceCandidatesVectorized(benchmark::State& state) {
  const KernelCase c(static_cast<std::size_t>(state.range(0)));
  ReplicaMaskWorkspace mask;
  mask.resize(c.theta.size());
  // The mask set/clear is part of the kernel protocol (O(replicas) per
  // demand), so it belongs inside the timed region.
  for (auto _ : state) {
    mask.set(c.replicas);
    benchmark::DoNotOptimize(price_candidates(
        c.soa(), {c.theta, c.inv_avail, c.avail, c.load, mask.bytes(), true},
        3.0, 0.25, 0.5));
    mask.clear(c.replicas);
  }
  state.counters["ns/cand"] = benchmark::Counter(
      static_cast<double>(state.range(0)) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_PriceCandidatesScalar(benchmark::State& state) {
  const KernelCase c(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(price_candidates_reference(
        c.soa(), {c.theta, c.inv_avail, c.avail, c.load, c.replicas, true},
        3.0, 0.25, 0.5));
  }
  state.counters["ns/cand"] = benchmark::Counter(
      static_cast<double>(state.range(0)) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

#define KERNEL_SIZES Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
BENCHMARK(BM_PriceCandidatesVectorized)->KERNEL_SIZES;
BENCHMARK(BM_PriceCandidatesScalar)->KERNEL_SIZES;
#undef KERNEL_SIZES

/// End-to-end micro-epoch loop at a bench-sized workload.  range(0) = shard
/// count; the instance and stream are built once per size.
void BM_RunStream(benchmark::State& state) {
  StreamWorkloadConfig cfg;
  cfg.sites = 512;
  cfg.queries = 4'096;
  cfg.datasets = 32;
  cfg.max_replicas = 128;
  static const Instance inst = stream_instance(cfg, 42);
  static const std::vector<Arrival> stream =
      generate_arrival_stream(inst, 2'000.0, 42);
  StreamOptions opts;
  opts.shards = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_stream(inst, stream, opts));
  }
  state.counters["ns/query"] = benchmark::Counter(
      static_cast<double>(cfg.queries) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RunStream)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace edgerep

BENCHMARK_MAIN();
