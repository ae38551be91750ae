// Microbenchmarks of the observability layer.
//
// The headline number is the disabled-mode overhead of the instrumented
// admission engine: `run_appro` timed with every obs facet off must stay
// within ~2% of the uninstrumented baseline (the instrumentation is a
// relaxed atomic load and an untaken branch per gate).  The enabled-mode
// run quantifies the full recording cost (metrics + trace + audit), and the
// counter benches pin the primitive costs.
#include <benchmark/benchmark.h>

#include "edgerep/edgerep.h"
#include "util/thread_pool.h"

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

void run_appro_obs(benchmark::State& state, bool obs_on) {
  const auto network = static_cast<std::size_t>(state.range(0));
  const auto queries = static_cast<std::size_t>(state.range(1));
  const Instance inst = admission_case(network, queries, /*f_max=*/5);
  obs::set_all_enabled(obs_on);
  for (auto _ : state) {
    benchmark::DoNotOptimize(appro_g(inst));
    if (obs_on) {
      // Bound recorder memory: drain the buffers outside the measured cost
      // of a single run but inside the loop (still part of enabled-mode
      // steady-state behaviour).
      obs::tracer().clear();
      obs::audit_log().clear();
    }
  }
  obs::set_all_enabled(false);
  obs::init_from_env();
  state.counters["ns/query"] = benchmark::Counter(
      static_cast<double>(queries) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_ApproObsOff(benchmark::State& state) {
  run_appro_obs(state, /*obs_on=*/false);
}
void BM_ApproObsOn(benchmark::State& state) {
  run_appro_obs(state, /*obs_on=*/true);
}

BENCHMARK(BM_ApproObsOff)->Args({64, 250})->Args({100, 500});
BENCHMARK(BM_ApproObsOn)->Args({64, 250})->Args({100, 500});

/// Cost of a gated counter increment with metrics off: one relaxed load.
void BM_CounterIncDisabled(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  obs::Counter c;
  for (auto _ : state) {
    c.inc();
    benchmark::DoNotOptimize(c);
  }
  obs::init_from_env();
}
BENCHMARK(BM_CounterIncDisabled);

/// Cost of a striped counter increment with metrics on.
void BM_CounterIncEnabled(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  obs::Counter c;
  for (auto _ : state) {
    c.inc();
    benchmark::DoNotOptimize(c);
  }
  obs::set_metrics_enabled(false);
  obs::init_from_env();
}
BENCHMARK(BM_CounterIncEnabled);

/// Concurrent increments from parallel_for workers (stripe contention).
void BM_CounterIncParallel(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  obs::Counter c;
  for (auto _ : state) {
    global_pool().parallel_for(4096, [&](std::size_t) { c.inc(); });
  }
  benchmark::DoNotOptimize(c.value());
  obs::set_metrics_enabled(false);
  obs::init_from_env();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_CounterIncParallel);

obs::JournalRecord flight_record() {
  obs::JournalRecord r;
  r.time = 1.25;
  r.v0 = 3.5;
  r.v1 = 0.5;
  r.a = 7;
  r.b = 11;
  r.site = 3;
  r.kind = static_cast<std::uint8_t>(obs::RecordKind::kTransferStart);
  r.arg = 1;
  return r;
}

/// Cost of the recorder gate with the facet off: one relaxed load and an
/// untaken branch — the shape every kernel append site compiles to.
void BM_RecorderAppendDisabled(benchmark::State& state) {
  obs::set_recorder_enabled(false);
  const obs::JournalRecord r = flight_record();
  for (auto _ : state) {
    if (obs::recorder_enabled()) obs::recorder().append(r);
    benchmark::DoNotOptimize(&obs::recorder());
  }
  obs::init_from_env();
}
BENCHMARK(BM_RecorderAppendDisabled);

/// Full-mode append throughput: a 40-byte store into a growing arena.  The
/// journal is cleared every 1M records to bound memory; the clear (and the
/// geometric regrowth it forces) is amortized into the reported rate.
void BM_RecorderAppendFull(benchmark::State& state) {
  obs::Recorder rec;
  const obs::JournalRecord r = flight_record();
  for (auto _ : state) {
    rec.append(r);
    if (rec.size() == (1u << 20)) rec.clear();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sizeof(r)));
  state.counters["records/sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RecorderAppendFull);

/// Cost of the watchdog gate with the facet off: one relaxed load and an
/// untaken branch, the same shape as the recorder gate above.
void BM_WatchdogFeedDisabled(benchmark::State& state) {
  obs::set_watchdog_enabled(false);
  for (auto _ : state) {
    if (obs::watchdog_enabled()) {
      obs::watchdog().on_completion(1.0, 0.5, false);
    }
    benchmark::DoNotOptimize(&obs::watchdog());
  }
  obs::init_from_env();
}
BENCHMARK(BM_WatchdogFeedDisabled);

/// Enabled sketch feed: one space-saving top-k pass per demand, beside
/// range(0) open site_overload alerts, as a loaded run holds while its
/// demands stream in.  The keys rotate over 16 datasets so no share ever
/// crosses the hotspot threshold.
void BM_WatchdogOnDemand(benchmark::State& state) {
  const auto open_sites = static_cast<std::uint32_t>(state.range(0));
  obs::Watchdog wd;
  wd.begin_run();
  // Idle samples past the warmup, then full load until the site's
  // Page–Hinkley detector opens its alert (the 4th sample at the default
  // thresholds).
  for (std::uint32_t site = 0; site < open_sites; ++site) {
    for (int i = 0; i < 8; ++i) wd.on_site_util(0.0, site, 0.0);
    for (int i = 0; i < 8 && wd.stats().open_at_end == site; ++i) {
      wd.on_site_util(0.0, site, 1.0);
    }
  }
  if (wd.stats().open_at_end != open_sites) {
    state.SkipWithError("site alerts did not open");
    return;
  }
  double t = 0.0;
  std::uint32_t key = 0;
  for (auto _ : state) {
    wd.on_demand(t, key);
    t += 1e-3;
    key = (key + 1) & 15u;
  }
  state.counters["feeds/sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WatchdogOnDemand)->Arg(0)->Arg(128)->Arg(512);

/// Enabled completion feed: breach EWMA update per query completion.  The
/// slack stays positive so the breach-burst detector never opens.
void BM_WatchdogOnCompletion(benchmark::State& state) {
  obs::Watchdog wd;
  wd.begin_run();
  double t = 0.0;
  for (auto _ : state) {
    wd.on_completion(t, 1.0, false);
    t += 1e-3;
  }
  state.counters["feeds/sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WatchdogOnCompletion);

/// Ring-mode steady-state overwrite: zero allocation once the ring is warm.
void BM_RecorderAppendRing(benchmark::State& state) {
  obs::Recorder rec;
  rec.configure(obs::RecorderMode::kRing, 1u << 16);
  const obs::JournalRecord r = flight_record();
  for (auto _ : state) rec.append(r);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sizeof(r)));
  state.counters["records/sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RecorderAppendRing);

}  // namespace
}  // namespace edgerep

BENCHMARK_MAIN();
