// Microbenchmarks of the flow-level network backend (sim/flows.h) and its
// integration into run_online.
//
// The churn benches measure the max-min re-fill cost at steady state: N
// concurrent flows over a shared link pool, each completion retiring one
// flow and starting a replacement — every transition re-fills the changed
// connected component, which is the backend's hot path.  The fill bench
// times the pure progressive-filling allocation (max_min_rates) alone.
// The end-to-end benches run run_online with --network=flow against the
// delay-table baseline at the 1k-site scale; events/sec counters make the
// contention surcharge direct.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "edgerep/edgerep.h"

namespace edgerep {
namespace {

constexpr std::size_t kPathLen = 4;

/// Deterministic random paths: kPathLen distinct-ish links per flow out of
/// `links` (collisions are fine — a duplicate edge just counts twice, which
/// the engine handles).  Identical across iterations and machines.
std::vector<std::vector<EdgeId>> flow_paths(std::size_t flows,
                                            std::size_t links) {
  Rng rng(0xf10c5ULL + flows);
  std::vector<std::vector<EdgeId>> paths(flows);
  for (auto& p : paths) {
    p.reserve(kPathLen);
    for (std::size_t i = 0; i < kPathLen; ++i) {
      p.push_back(static_cast<EdgeId>(
          rng.uniform_u64(0, static_cast<std::uint64_t>(links) - 1)));
    }
  }
  return paths;
}

std::vector<double> flow_sizes(std::size_t flows) {
  Rng rng(0x51ce5ULL + flows);
  std::vector<double> sizes(flows);
  for (double& s : sizes) s = rng.uniform(0.5, 2.0);
  return sizes;
}

/// Steady-state churn: keep `flows` flows live; every completion starts a
/// replacement until the spawn budget is spent, then the queue drains.
/// Each transition (start or completion) re-fills the changed component.
void BM_FlowChurn(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  const auto links = static_cast<std::size_t>(state.range(1));
  const std::size_t spawns = flows * 4;
  const std::vector<std::vector<EdgeId>> paths = flow_paths(spawns, links);
  const std::vector<double> sizes = flow_sizes(spawns);
  std::uint64_t completions = 0;
  std::uint64_t rate_changes = 0;
  for (auto _ : state) {
    TypedEventQueue queue;
    FlowEngine engine(queue, std::vector<double>(links, 1.0));
    engine.set_rate_listener([&rate_changes](std::uint32_t, double,
                                             double rate, double, EdgeId) {
      if (rate > 0.0) ++rate_changes;
    });
    std::size_t next = 0;
    auto launch = [&] {
      if (next >= spawns) return;
      const std::size_t i = next++;
      ++completions;  // every started flow eventually completes
      engine.start_flow(sizes[i], paths[i], static_cast<std::uint32_t>(i));
    };
    for (std::size_t i = 0; i < flows; ++i) launch();
    SimEvent ev;
    while (queue.pop(&ev)) {
      if (engine.handle_event(ev) != FlowEngine::kNoFlow) launch();
    }
    benchmark::DoNotOptimize(engine.active_flows());
  }
  state.counters["completions/s"] = benchmark::Counter(
      static_cast<double>(completions), benchmark::Counter::kIsRate);
  state.counters["refills/completion"] = benchmark::Counter(
      completions > 0 ? static_cast<double>(rate_changes) /
                            static_cast<double>(completions)
                      : 0.0);
}

/// The pure progressive-filling allocation over one big component.
void BM_MaxMinRates(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  const auto links = static_cast<std::size_t>(state.range(1));
  const std::vector<std::vector<EdgeId>> paths = flow_paths(flows, links);
  const std::vector<double> capacity(links, 1.0);
  for (auto _ : state) {
    const std::vector<double> rates = max_min_rates(capacity, paths);
    benchmark::DoNotOptimize(rates.data());
  }
  state.counters["ns/flow"] = benchmark::Counter(
      static_cast<double>(flows) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_OnlineNetwork(benchmark::State& state, OnlineNetwork network) {
  StreamWorkloadConfig wc;
  wc.sites = 1'000;
  wc.queries = 5'000;
  const Instance inst = stream_instance(wc, 0x0b5e);
  OnlineConfig cfg;
  cfg.arrival_rate = 20.0;
  cfg.network = network;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const OnlineResult res = run_online(inst, cfg);
    events += res.kernel_stats.events_processed;
    benchmark::DoNotOptimize(res.admitted_queries);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

void BM_OnlineTable(benchmark::State& state) {
  BM_OnlineNetwork(state, OnlineNetwork::kTable);
}

void BM_OnlineFlow(benchmark::State& state) {
  BM_OnlineNetwork(state, OnlineNetwork::kFlow);
}

// Populations past ~1k flows over a shared pool merge into one giant
// component whose per-completion re-fill turns the churn quadratic
// (minutes per iteration) — keep the committed cases in the regime the
// backend is actually run in.
BENCHMARK(BM_FlowChurn)
    ->Args({64, 1'024})
    ->Args({512, 1'024})
    ->Args({512, 10'240})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MaxMinRates)->Args({256, 1'024})->Args({2'048, 10'240});
BENCHMARK(BM_OnlineTable)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OnlineFlow)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace edgerep

BENCHMARK_MAIN();
