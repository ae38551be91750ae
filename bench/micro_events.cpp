// Microbenchmarks of the event core (sim/event_kernel.h).
//
// The queue bench pushes/pops N 40-byte POD events through the 4-ary heap.
// The slab bench measures flight churn (create/destroy with free-list
// reuse) at a fixed live population.  The end-to-end bench runs the full
// online testbed at a small scale, with an events/sec counter.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "edgerep/edgerep.h"

namespace edgerep {
namespace {

/// Deterministic event times: uniform over [0, 1000) so heap order is
/// unpredictable but identical across iterations.
std::vector<double> event_times(std::size_t n) {
  Rng rng(0xeeccULL + n);
  std::vector<double> t(n);
  for (double& x : t) x = rng.uniform(0.0, 1000.0);
  return t;
}

void BM_TypedQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> times = event_times(n);
  for (auto _ : state) {
    // Fresh queue per iteration: draining resets now() to ~1000, so reusing
    // the queue would push times below now() (precondition violation).
    TypedEventQueue q;
    q.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      SimEvent ev{};
      ev.time = times[i];
      ev.kind = EvKind::kArrival;
      ev.a = static_cast<std::uint32_t>(i);
      ev.seq = evseq::make(evseq::kArrivalBand, i);
      q.push(ev);
    }
    SimEvent ev;
    while (q.pop(&ev)) benchmark::DoNotOptimize(ev.time);
  }
  state.counters["ns/event"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_FlightSlabChurn(benchmark::State& state) {
  // Steady-state churn at a fixed live population: create one, destroy the
  // oldest — the pattern a bounded-concurrency online run drives.
  const auto live = static_cast<std::size_t>(state.range(0));
  FlightSlab slab;
  std::vector<FlightHandle> ring(live);
  for (std::size_t i = 0; i < live; ++i) {
    ring[i] = slab.create();
    slab.get(ring[i])->query = static_cast<QueryId>(i);
  }
  std::size_t head = 0;
  for (auto _ : state) {
    slab.destroy(ring[head]);
    ring[head] = slab.create();
    head = (head + 1) % live;
    benchmark::DoNotOptimize(ring[head].slot);
  }
  state.counters["live"] =
      benchmark::Counter(static_cast<double>(slab.live_count()));
}

void BM_OnlineTyped(benchmark::State& state) {
  StreamWorkloadConfig wc;
  wc.sites = 1'000;
  wc.queries = 5'000;
  const Instance inst = stream_instance(wc, 0x0b5e);
  OnlineConfig cfg;
  cfg.arrival_rate = 20.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const OnlineResult res = run_online(inst, cfg);
    events += res.kernel_stats.events_processed;
    benchmark::DoNotOptimize(res.admitted_queries);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_TypedQueuePushPop)->Arg(1'000)->Arg(100'000);
BENCHMARK(BM_FlightSlabChurn)->Arg(64)->Arg(4'096);
BENCHMARK(BM_OnlineTyped)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace edgerep

BENCHMARK_MAIN();
