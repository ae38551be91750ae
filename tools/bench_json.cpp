// Emits the committed perf-trajectory anchors; re-run after touching the
// admission hot path or the network substrate:
//
//   ./build/tools/bench_json [--reps=9] [--substrate-reps=5]
//                            [--out=BENCH_appro.json]
//                            [--substrate-out=BENCH_substrate.json]
//
// BENCH_appro.json: median ns/query of the admission engine for the special
// (S, one dataset per query) and general (G, multi-dataset) cases at three
// instance sizes, plus the median CandidateIndex build time and entry count
// at the perfbench `admission` shape (case "index"); on that instance with
// capacity scaled to total demand / 1.5, the min/median/max appro_g time
// and its admitted query count (case "appro_g") and the median run_stream
// time at 1 and 8 shards (cases "stream_s1", "stream_s8").
//
// BENCH_substrate.json: the site-rows DelayTable vs the dense all-pairs
// DelayMatrix on ~degree-8 graphs with 10% placement sites — precompute
// entry counts (|V|·n vs n²) and median Instance::finalize wall time per
// backend at 1k–4k nodes, plus the memory ratio and finalize speedup.
//
// BENCH_repair.json: median wall time of post-failure plan repair (crash of
// the most-loaded site) for the incremental primal-dual path vs the
// full-recompute oracle, at the same three instance sizes
// ([--repair-out=BENCH_repair.json] [--repair-reps=9]).
//
// BENCH_online.json: the event core at 10k sites (run_ms, events/sec)
// plus 1M- and 10M-query horizon sweeps with peak event-heap sizes — the
// O(inflight) memory evidence — and the sites each case's admission scan
// scored per demand
// ([--online-out=BENCH_online.json] [--online-reps=3]).
//
// BENCH_obs.json: observability overhead as the median wall time of a
// batch of online runs, on a quiet 100-site case (20-run batches, 2
// alerts per run) and a loaded drift case (10-run batches, hundreds of
// alerts per run, dozens open at once).  One interleaved loop per case
// times a plain leg (everything off) against three legs: a full-mode
// journal appended at every causal step (plus the per-run record count),
// the watchdog alone, and the serving path — metrics + status board +
// 100 ms time-series sampler + live HTTP server
// ([--obs-out=BENCH_obs.json] [--obs-reps=9]).
//
// BENCH_flows.json: the flow-level network backend — run_online with
// --network=flow vs the delay table at 1k and 10k sites (median wall time,
// events/sec, flows routed, re-fill count), plus steady-state re-fill churn
// of the FlowEngine alone at 64–4096 concurrent flows
// ([--flows-out=BENCH_flows.json] [--flows-reps=3]).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "edgerep/edgerep.h"

namespace edgerep {
namespace {

using clock_type = std::chrono::steady_clock;

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

double round2(double x) {
  return static_cast<double>(static_cast<long long>(x * 100.0)) / 100.0;
}

struct CaseSpec {
  const char* name;        // "S" or "G"
  std::size_t network;
  std::size_t queries;
  std::size_t f_max;
};

double median_ns_per_query(const Instance& inst, const ApproOptions& opts,
                           std::size_t queries, int reps) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock_type::now();
    const ApproResult res = appro_g(inst, opts);
    const auto t1 = clock_type::now();
    // Keep the result alive past the timer so the run is not elided.
    if (res.metrics.total_queries != queries) {
      throw std::runtime_error("bench_json: unexpected query count");
    }
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    samples.push_back(ns / static_cast<double>(queries));
  }
  return median(std::move(samples));
}

int emit_appro(const std::string& out_path, int reps) {
  const std::vector<CaseSpec> cases = {
      {"S", 32, 100, 1},  {"S", 64, 250, 1},  {"S", 100, 500, 1},
      {"G", 32, 100, 5},  {"G", 64, 250, 5},  {"G", 100, 500, 5},
  };

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_json: cannot open " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"appro_admission\",\n"
      << "  \"metric\": \"median_ns_per_query\",\n"
      << "  \"atomic_queries\": true,\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"cases\": [\n";

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseSpec& c = cases[i];
    WorkloadConfig cfg;
    cfg.network_size = c.network;
    cfg.min_queries = c.queries;
    cfg.max_queries = c.queries;
    cfg.min_datasets_per_query = 1;
    cfg.max_datasets_per_query = c.f_max;
    const Instance inst = generate_instance(cfg, /*seed=*/42);

    const double sp_ns = median_ns_per_query(inst, {}, c.queries, reps);

    out << "    {\"case\": \"" << c.name << "\", \"network_size\": "
        << c.network << ", \"queries\": " << c.queries
        << ", \"savepoint_ns_per_query\": " << static_cast<long long>(sp_ns)
        << "},\n";

    std::cerr << c.name << " " << c.network << "x" << c.queries
              << ": savepoint " << static_cast<long long>(sp_ns)
              << " ns/query\n";
  }

  // The candidate index at the perfbench `admission` shape: 1000 sites,
  // 50k queries of 1-3 demands, and deadlines that leave each demand ~19
  // deadline-feasible sites.
  {
    StreamWorkloadConfig wc;
    wc.sites = 1000;
    wc.queries = 50'000;
    wc.datasets = 256;
    wc.max_demands = 3;
    wc.max_replicas = 32;
    wc.zipf_exponent = 1.0;
    wc.deadline_per_gb = {0.03, 0.06};
    wc.selectivity = {0.4, 0.8};
    wc.proc_delay = {0.005, 0.02};
    wc.volume = {3.0, 4.0};
    const Instance inst = stream_instance(wc, /*seed=*/42);
    std::vector<double> samples;
    std::size_t candidates = 0;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = clock_type::now();
      const CandidateIndex index(inst);
      samples.push_back(
          std::chrono::duration<double, std::milli>(clock_type::now() - t0)
              .count());
      candidates = index.size();
    }
    const double ms = median(std::move(samples));
    out << "    {\"case\": \"index\", \"sites\": " << wc.sites
        << ", \"queries\": " << wc.queries
        << ", \"index_build_ms\": " << round2(ms)
        << ", \"candidates\": " << candidates << "},\n";
    std::cerr << "index " << wc.sites << "x" << wc.queries << ": " << ms
              << " ms, " << candidates << " candidates\n";

    // The stream plane on the same instance, with capacity scaled to total
    // demand / 1.5 so capacity and K bind, as in perfbench `admission`.
    Instance scarce = inst;
    double demand = 0.0;
    for (const Query& q : scarce.queries()) {
      for (const DatasetDemand& dd : q.demands) {
        demand += resource_demand(scarce, q, dd);
      }
    }
    double capacity = 0.0;
    for (const Site& s : scarce.sites()) capacity += s.capacity;
    for (const Site& s : scarce.sites()) {
      scarce.set_available(s.id, s.capacity * (demand / 1.5 / capacity));
    }
    // Batch Appro-G on that instance, the call perfbench `admission` times
    // as core.appro_g_s: its index build plus its admission pass.
    {
      std::vector<double> run;
      std::size_t admitted = 0;
      for (int r = 0; r < reps; ++r) {
        const auto t0 = clock_type::now();
        const ApproResult res = appro_g(scarce);
        run.push_back(
            std::chrono::duration<double, std::milli>(clock_type::now() - t0)
                .count());
        admitted = res.metrics.admitted_queries;
      }
      const auto [lo, hi] = std::minmax_element(run.begin(), run.end());
      const double run_min = *lo;
      const double run_max = *hi;
      const double run_ms = median(std::move(run));
      out << "    {\"case\": \"appro_g\", \"sites\": " << wc.sites
          << ", \"queries\": " << wc.queries
          << ", \"run_ms\": " << round2(run_ms)
          << ", \"run_ms_min\": " << round2(run_min)
          << ", \"run_ms_max\": " << round2(run_max)
          << ", \"admitted\": " << admitted << "},\n";
      std::cerr << "appro_g " << wc.sites << "x" << wc.queries << ": "
                << run_ms << " ms (min " << run_min << ", max " << run_max
                << "), admitted " << admitted << "\n";
    }
    const std::vector<Arrival> stream =
        generate_arrival_stream(scarce, /*rate=*/20'000.0, /*seed=*/42);
    for (const std::size_t shards : {1u, 8u}) {
      StreamOptions opts;
      opts.shards = shards;
      std::vector<double> run;
      std::size_t admitted = 0;
      for (int r = 0; r < reps; ++r) {
        const auto t0 = clock_type::now();
        const StreamResult res = run_stream(scarce, stream, opts);
        run.push_back(
            std::chrono::duration<double, std::milli>(clock_type::now() - t0)
                .count());
        admitted = res.queries_admitted;
      }
      const double run_ms = median(std::move(run));
      out << "    {\"case\": \"stream_s" << shards << "\", \"sites\": "
          << wc.sites << ", \"queries\": " << wc.queries
          << ", \"shards\": " << shards << ", \"run_ms\": " << round2(run_ms)
          << ", \"admitted\": " << admitted << "}"
          << (shards == 8 ? "\n" : ",\n");
      std::cerr << "stream " << wc.sites << "x" << wc.queries << " shards="
                << shards << ": " << run_ms << " ms, admitted " << admitted
                << "\n";
    }
  }

  // Observability overhead on the largest G case: the same workload timed
  // with every obs facet off and again with metrics+trace+audit recording,
  // plus a snapshot of the engine counters accumulated by the enabled run.
  {
    const CaseSpec& c = cases.back();
    WorkloadConfig cfg;
    cfg.network_size = c.network;
    cfg.min_queries = c.queries;
    cfg.max_queries = c.queries;
    cfg.min_datasets_per_query = 1;
    cfg.max_datasets_per_query = c.f_max;
    const Instance inst = generate_instance(cfg, /*seed=*/42);

    obs::set_all_enabled(false);
    const double off_ns = median_ns_per_query(inst, {}, c.queries, reps);
    obs::set_all_enabled(true);
    obs::metrics().reset();
    obs::tracer().clear();
    obs::audit_log().clear();
    const double on_ns = median_ns_per_query(inst, {}, c.queries, reps);
    obs::set_all_enabled(false);

    out << "  ],\n"
        << "  \"obs_overhead\": {\"case\": \"" << c.name
        << "\", \"network_size\": " << c.network << ", \"queries\": "
        << c.queries << ", \"disabled_ns_per_query\": "
        << static_cast<long long>(off_ns) << ", \"enabled_ns_per_query\": "
        << static_cast<long long>(on_ns) << ", \"overhead_pct\": "
        << round2((on_ns / off_ns - 1.0) * 100.0) << "},\n"
        << "  \"metrics\": ";
    obs::metrics().write_json(out);
    out << "\n}\n";
    obs::tracer().clear();
    obs::audit_log().clear();

    std::cerr << "obs overhead on " << c.name << " " << c.network << "x"
              << c.queries << ": off " << static_cast<long long>(off_ns)
              << " ns/query, on " << static_cast<long long>(on_ns)
              << " ns/query (" << (on_ns / off_ns - 1.0) * 100.0 << "%)\n";
  }
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

// Unfinalized scale instance: ~degree-8 G(n, p) graph, every 10th node a
// placement site (the paper's V = CL ∪ DC is a small fraction of the
// network), one token dataset/query so finalize's cost is the delay
// precompute.
Instance substrate_instance(std::size_t n) {
  Rng rng(8);
  Graph g = gnp(n, 8.0 / static_cast<double>(n), Range{0.05, 1.0}, rng);
  Instance inst(std::move(g));
  for (std::size_t v = 0; v < n; v += 10) {
    inst.add_site(static_cast<NodeId>(v), 40.0, 0.1);
  }
  const DatasetId d = inst.add_dataset(4.0, 0);
  inst.add_query(0, 1.0, 100.0, {{d, 0.5}});
  return inst;
}

double median_finalize_ms(const Instance& proto, DelayBackend backend,
                          int reps) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Instance inst = proto;
    inst.set_delay_backend(backend);
    const auto t0 = clock_type::now();
    inst.finalize();
    const auto t1 = clock_type::now();
    if (!inst.finalized()) throw std::runtime_error("bench_json: finalize");
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return median(std::move(samples));
}

int emit_substrate(const std::string& out_path, int reps) {
  const std::vector<std::size_t> sizes = {1024, 2048, 4096};

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_json: cannot open " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"network_substrate\",\n"
      << "  \"topology\": \"gnp_avg_degree_8\",\n"
      << "  \"site_fraction\": 0.1,\n"
      << "  \"metric\": \"median_finalize_ms\",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"cases\": [\n";

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t n = sizes[i];
    const Instance proto = substrate_instance(n);
    const std::size_t sites = proto.sites().size();
    const auto dense_entries = static_cast<unsigned long long>(n) * n;
    const auto site_entries = static_cast<unsigned long long>(sites) * n;

    const double rows_ms =
        median_finalize_ms(proto, DelayBackend::kSiteRows, reps);
    const double dense_ms =
        median_finalize_ms(proto, DelayBackend::kDense, reps);

    out << "    {\"nodes\": " << n << ", \"sites\": " << sites
        << ", \"dense_entries\": " << dense_entries
        << ", \"site_rows_entries\": " << site_entries
        << ", \"memory_ratio\": "
        << round2(static_cast<double>(dense_entries) /
                  static_cast<double>(site_entries))
        << ", \"dense_finalize_ms\": " << round2(dense_ms)
        << ", \"site_rows_finalize_ms\": " << round2(rows_ms)
        << ", \"finalize_speedup\": " << round2(dense_ms / rows_ms) << "}"
        << (i + 1 < sizes.size() ? "," : "") << "\n";

    std::cerr << "substrate n=" << n << " sites=" << sites << ": site-rows "
              << rows_ms << " ms, dense " << dense_ms << " ms, speedup "
              << dense_ms / rows_ms << "x, memory ratio "
              << static_cast<double>(dense_entries) /
                     static_cast<double>(site_entries)
              << "x\n";
  }

  out << "  ]\n}\n";
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

/// Median repair wall time (ms) over fresh copies of the solved state, plus
/// the stats of one representative run (every rep is deterministic, so the
/// stats are identical across reps).
double median_repair_ms(const ApproResult& solved, const RepairEngine& engine,
                        const FaultState& faults, const RepairOptions& opts,
                        int reps, RepairStats* stats_out) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    ReplicaPlan plan = solved.plan;
    DualState duals = solved.duals;
    const auto t0 = clock_type::now();
    const RepairStats st = engine.repair(plan, duals, faults, opts);
    const auto t1 = clock_type::now();
    if (!validate_under_faults(plan, faults).ok) {
      throw std::runtime_error("bench_json: repaired plan invalid");
    }
    *stats_out = st;
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return median(std::move(samples));
}

int emit_repair(const std::string& out_path, int reps) {
  const std::vector<CaseSpec> cases = {
      {"G", 32, 100, 5}, {"G", 64, 250, 5}, {"G", 100, 500, 5}};

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_json: cannot open " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"failure_repair\",\n"
      << "  \"fault\": \"crash_most_loaded_site\",\n"
      << "  \"metric\": \"median_repair_ms\",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"cases\": [\n";

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseSpec& c = cases[i];
    WorkloadConfig cfg;
    cfg.network_size = c.network;
    cfg.min_queries = c.queries;
    cfg.max_queries = c.queries;
    cfg.min_datasets_per_query = 1;
    cfg.max_datasets_per_query = c.f_max;
    const Instance inst = generate_instance(cfg, /*seed=*/42);
    const ApproResult solved = appro_g(inst);

    SiteId victim = 0;
    for (const Site& s : inst.sites()) {
      if (solved.plan.load(s.id) > solved.plan.load(victim)) victim = s.id;
    }
    FaultState faults(inst);
    faults.apply({0.0, FaultKind::kSiteDown, victim, kInvalidEdge, 0.0});

    const RepairEngine engine(inst);
    RepairOptions incremental;
    RepairOptions oracle;
    oracle.full_recompute = true;

    RepairStats inc_st;
    RepairStats full_st;
    const double inc_ms =
        median_repair_ms(solved, engine, faults, incremental, reps, &inc_st);
    const double full_ms =
        median_repair_ms(solved, engine, faults, oracle, reps, &full_st);

    out << "    {\"case\": \"" << c.name << "\", \"network_size\": "
        << c.network << ", \"queries\": " << c.queries
        << ", \"evicted\": " << inc_st.queries_evicted
        << ", \"readmitted\": " << inc_st.queries_readmitted
        << ", \"incremental_ms\": " << round2(inc_ms)
        << ", \"full_recompute_ms\": " << round2(full_ms)
        << ", \"speedup\": " << round2(full_ms / inc_ms) << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";

    std::cerr << "repair " << c.network << "x" << c.queries << ": evicted "
              << inc_st.queries_evicted << ", incremental " << inc_ms
              << " ms, full " << full_ms << " ms, speedup "
              << full_ms / inc_ms << "x\n";
  }

  out << "  ]\n}\n";
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

/// Wall time (ms) of `batch` back-to-back online runs.  Single runs finish
/// in a couple of milliseconds — too close to timer noise to resolve a 2%
/// overhead — so the overhead comparisons time batches.
double online_batch_ms(const Instance& inst, const OnlineConfig& cfg,
                       int batch) {
  const auto t0 = clock_type::now();
  for (int b = 0; b < batch; ++b) {
    const OnlineResult res = run_online(inst, cfg);
    if (res.outcomes.size() != inst.queries().size()) {
      throw std::runtime_error("bench_json: unexpected outcome count");
    }
  }
  const auto t1 = clock_type::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// One BENCH_obs case: an online run and the batch size that resolves it.
struct ObsCase {
  std::string name;
  std::size_t network = 0;
  std::size_t queries = 0;
  int batch = 0;
  Instance inst;
  OnlineConfig cfg;
};

/// The 100-site generated case: a quiet run (2 alerts).
ObsCase obs_quiet_case() {
  WorkloadConfig cfg;
  cfg.network_size = 100;
  cfg.min_queries = cfg.max_queries = 500;
  cfg.min_datasets_per_query = 1;
  cfg.max_datasets_per_query = 5;
  return {"G", 100, 500, 20, generate_instance(cfg, /*seed=*/42), {}};
}

/// A loaded drift case (the watchdog/many_open_alerts golden's run):
/// 256 sites at 2% of their capacity, a drifting Zipf(2) mix, a diurnal
/// wave and faults.  Hundreds of alerts open per run, up to 78 at once.
ObsCase obs_drift_case() {
  StreamWorkloadConfig wc;
  wc.sites = 256;
  wc.queries = 20000;
  wc.datasets = 16;
  wc.max_demands = 3;
  wc.max_replicas = 32;
  wc.volume = {3.0, 4.0};
  wc.zipf_exponent = 2.0;
  wc.zipf_drift_period = 2000;
  ObsCase c{"drift", wc.sites, wc.queries, 10, stream_instance(wc, 0x3a1e),
            {}};
  for (const Site& s : c.inst.sites()) {
    c.inst.set_available(s.id, 0.02 * s.capacity);
  }
  c.cfg.seed = 0x3a1e;
  c.cfg.arrival_rate = 5000.0;
  c.cfg.wave_amplitude = 0.5;
  c.cfg.wave_period = 4.0 / 3.0;
  c.cfg.repair_on_failure = true;
  FaultScenarioConfig fc;
  fc.horizon = 3.2;
  fc.site_crashes = 4;
  fc.capacity_losses = 4;
  fc.mean_repair_time = 0.4;
  fc.cloudlets_only = false;
  c.cfg.faults = generate_fault_trace(c.inst, fc, 0x3a1e);
  return c;
}

int emit_obs(const std::string& out_path, int reps) {
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_json: cannot open " << out_path << "\n";
    return 1;
  }
  const ObsCase cases[] = {obs_quiet_case(), obs_drift_case()};

  // Serving-leg setup: metrics + status board + sampler at the documented
  // 100 ms interval + a live (unscraped) HTTP server — the `online --serve`
  // setup.  The sampler and server threads run through every leg, as they
  // would in a serving process.
  OnlineStatusBoard board;
  obs::TimeSeriesSampler sampler;
  sampler.add_counter_series("edgerep_online_arrivals_total");
  sampler.add_counter_series("edgerep_online_queries_admitted_total");
  sampler.add_series("online_sim_clock_seconds",
                     [&board] { return board.sim_clock(); });
  sampler.add_series("online_utilization",
                     [&board] { return board.utilization(); });
  sampler.add_series("dual_theta_max",
                     [] { return obs::dual_prices().max_theta(); });
  obs::HttpServer server;
  server.route("/metrics", [](const obs::HttpRequest&) {
    std::ostringstream os;
    obs::metrics().write_prometheus(os);
    return obs::HttpResponse{200, "text/plain; version=0.0.4", os.str()};
  });
  server.start(0);
  obs::metrics().reset();
  sampler.start(100);

  out << "{\n"
      << "  \"benchmark\": \"flight_recorder\",\n"
      << "  \"metric\": \"median_batch_ms\",\n"
      << "  \"record_bytes\": " << sizeof(obs::JournalRecord) << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const ObsCase& c = cases[i];
    OnlineConfig serve_cfg = c.cfg;
    serve_cfg.status_board = &board;
    // Interleave the legs so slow machine drift (frequency scaling,
    // background load) hits every leg equally instead of biasing whichever
    // loop runs last.  This measures the steady-state path: one unscored
    // warm-up batch faults in the journal arena, and the per-rep clear()
    // keeps its capacity, so scored appends never pay geometric growth or
    // first-touch page faults — those are one-time costs of a long-running
    // recorder, not recurring work.
    obs::set_all_enabled(false);
    obs::recorder().configure(obs::RecorderMode::kFull);
    obs::set_recorder_enabled(true);
    online_batch_ms(c.inst, c.cfg, c.batch);  // warm-up: grows the arena
    obs::set_recorder_enabled(false);
    std::vector<double> plain_samples, record_samples, watchdog_samples,
        serve_samples;
    std::uint64_t batch_records = 0;
    std::size_t run_alerts = 0;
    for (int r = 0; r < reps; ++r) {
      obs::set_recorder_enabled(false);
      plain_samples.push_back(online_batch_ms(c.inst, c.cfg, c.batch));
      obs::recorder().clear();  // drop records, keep the warm arena
      obs::set_recorder_enabled(true);
      record_samples.push_back(online_batch_ms(c.inst, c.cfg, c.batch));
      batch_records = obs::recorder().total_appended();
      // Third leg: the watchdog alone (recorder back off), so the sensor
      // plane's per-event detector cost is measured separately from the
      // journal append cost it can piggyback on.
      obs::set_recorder_enabled(false);
      obs::set_watchdog_enabled(true);
      watchdog_samples.push_back(online_batch_ms(c.inst, c.cfg, c.batch));
      run_alerts = obs::watchdog().stats().opened;
      obs::set_watchdog_enabled(false);
      // Fourth leg: the serving path (metrics on, status board attached).
      obs::set_metrics_enabled(true);
      serve_samples.push_back(online_batch_ms(c.inst, serve_cfg, c.batch));
      obs::set_metrics_enabled(false);
    }
    obs::set_recorder_enabled(false);
    obs::recorder().configure(obs::RecorderMode::kFull);  // release the arena
    const double plain_ms = median(std::move(plain_samples));
    const double recording_ms = median(std::move(record_samples));
    const double watchdog_ms = median(std::move(watchdog_samples));
    const double serving_ms = median(std::move(serve_samples));
    const double overhead_pct = (recording_ms / plain_ms - 1.0) * 100.0;
    const double watchdog_overhead_pct =
        (watchdog_ms / plain_ms - 1.0) * 100.0;
    const double serve_overhead_pct = (serving_ms / plain_ms - 1.0) * 100.0;
    const std::uint64_t records_per_run =
        batch_records / static_cast<std::uint64_t>(c.batch);

    out << "    {\"case\": \"" << c.name << "\", \"network_size\": "
        << c.network << ", \"queries\": " << c.queries
        << ", \"batch\": " << c.batch
        << ", \"plain_ms\": " << round2(plain_ms)
        << ", \"recording_ms\": " << round2(recording_ms)
        << ", \"overhead_pct\": " << round2(overhead_pct)
        << ", \"records_per_run\": " << records_per_run
        << ", \"watchdog_ms\": " << round2(watchdog_ms)
        << ", \"watchdog_overhead_pct\": " << round2(watchdog_overhead_pct)
        << ", \"alerts_per_run\": " << run_alerts
        << ", \"serving_ms\": " << round2(serving_ms)
        << ", \"serve_overhead_pct\": " << round2(serve_overhead_pct) << "}"
        << (i + 1 < std::size(cases) ? "," : "") << "\n";

    std::cerr << "flight recorder " << c.name << " " << c.network << "x"
              << c.queries << " (batch " << c.batch << "): plain "
              << plain_ms << " ms, recording " << recording_ms << " ms ("
              << overhead_pct << "%), " << records_per_run
              << " records/run; watchdog " << watchdog_ms << " ms ("
              << watchdog_overhead_pct << "%, " << run_alerts
              << " alerts/run); serving " << serving_ms << " ms ("
              << serve_overhead_pct << "%)\n";
  }
  sampler.stop();
  server.stop();
  out << "  ]\n}\n";
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

/// Deterministic pricing problem for the kernel-vs-oracle comparison:
/// `n` candidates over `2n` sites, the demanded dataset holding 16 replicas
/// (mirrors bench/micro_stream.cpp so the numbers line up).
struct KernelArrays {
  std::vector<SiteId> site;
  std::vector<double> dod;
  std::vector<double> theta;
  std::vector<double> inv_avail;  // per site: 1 / avail
  std::vector<double> avail;
  std::vector<double> load;
  std::vector<SiteId> replicas;

  explicit KernelArrays(std::size_t n) {
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
};

/// ns per candidate of either pricing path.  The vectorized side pays the
/// mask set/clear inside the timed region (it is part of the kernel's
/// per-demand protocol); the reference side is the original plan-walk with
/// its linear has_replica scan.
double kernel_ns_per_candidate(const KernelArrays& c, bool reference,
                               std::size_t iters) {
  const CandidateSoA soa{c.site, c.dod};
  ReplicaMaskWorkspace mask;
  mask.resize(c.theta.size());
  double sink = 0.0;
  const auto t0 = clock_type::now();
  if (reference) {
    const ReferencePricingState st{c.theta, c.inv_avail, c.avail, c.load,
                                   c.replicas, true};
    for (std::size_t i = 0; i < iters; ++i) {
      sink += static_cast<double>(
          price_candidates_reference(soa, st, 3.0, 0.25, 0.5).site);
    }
  } else {
    for (std::size_t i = 0; i < iters; ++i) {
      mask.set(c.replicas);
      const PricingState st{c.theta, c.inv_avail, c.avail, c.load,
                            mask.bytes(), true};
      sink += static_cast<double>(
          price_candidates(soa, st, 3.0, 0.25, 0.5).site);
      mask.clear(c.replicas);
    }
  }
  const auto t1 = clock_type::now();
  if (sink < 0.0) throw std::runtime_error("bench_json: kernel sink");
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  return ns / static_cast<double>(iters * c.site.size());
}

double timed_online_ms(const Instance& inst, const OnlineConfig& cfg,
                       OnlineResult* out) {
  const auto t0 = clock_type::now();
  *out = run_online(inst, cfg);
  const auto t1 = clock_type::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Sites the admission scan scored per site selection (one per demand
/// admitted, rejected or relocated).
double sites_scored_per_demand(const OnlineKernelStats& ks) {
  return ks.site_selections == 0
             ? 0.0
             : static_cast<double>(ks.sites_scored) /
                   static_cast<double>(ks.site_selections);
}

int emit_online(const std::string& out_path, int reps) {
  // The 10k-site case: K = 1024 is never spent, so every demand's site
  // selection searches the fill index over 10k sites.
  StreamWorkloadConfig wc10k;
  wc10k.sites = 10'000;
  wc10k.queries = 20'000;
  std::cerr << "online bench: generating 10k-site instance...\n";
  const Instance inst10k = stream_instance(wc10k, 0x10f5);
  OnlineConfig cfg;
  cfg.arrival_rate = 20.0;

  std::vector<double> typed_ms_s;
  OnlineResult typed_res;
  for (int r = 0; r < reps; ++r) {
    typed_ms_s.push_back(timed_online_ms(inst10k, cfg, &typed_res));
  }
  const double typed_ms = median(std::move(typed_ms_s));
  const auto events_per_sec = [](const OnlineResult& r, double ms) {
    return static_cast<long long>(
        static_cast<double>(r.kernel_stats.events_processed) / (ms / 1000.0));
  };
  std::cerr << "online 10k sites x " << wc10k.queries << ": " << typed_ms
            << " ms, " << sites_scored_per_demand(typed_res.kernel_stats)
            << " sites scored per demand\n";

  // Memory-bound horizon sweeps: peak pending events stay O(inflight).
  struct SweepSpec {
    const char* name;
    std::size_t sites;
    std::size_t queries;
    double rate;
  };
  const SweepSpec sweeps[] = {
      {"typed_1m", 1'024, 1'000'000, 50.0},
      {"typed_10m", 256, 10'000'000, 100.0},
  };
  std::string sweep_json;
  for (const SweepSpec& sp : sweeps) {
    StreamWorkloadConfig swc;
    swc.sites = sp.sites;
    swc.queries = sp.queries;
    std::cerr << "online bench: generating " << sp.name << " instance...\n";
    const Instance inst = stream_instance(swc, 0x5eed);
    OnlineConfig scfg;
    scfg.arrival_rate = sp.rate;
    OnlineResult r;
    const double ms = timed_online_ms(inst, scfg, &r);
    const auto& ks = r.kernel_stats;
    std::ostringstream os;
    os << "    {\"case\": \"" << sp.name << "\", \"sites\": " << sp.sites
       << ", \"queries\": " << sp.queries
       << ", \"run_ms\": " << round2(ms)
       << ", \"events_per_sec\": " << events_per_sec(r, ms)
       << ", \"peak_pending_events\": " << ks.peak_pending_events
       << ", \"peak_flights\": " << ks.peak_flights
       << ", \"peak_event_bytes\": " << ks.peak_event_bytes
       << ", \"sites_scored_per_demand\": "
       << round2(sites_scored_per_demand(ks)) << "},\n";
    sweep_json += os.str();
    std::cerr << sp.name << ": " << ms << " ms, "
              << events_per_sec(r, ms) << " events/s, peak pending "
              << ks.peak_pending_events << " events ("
              << ks.peak_event_bytes << " B) for " << sp.queries
              << " queries, " << sites_scored_per_demand(ks)
              << " sites scored per demand\n";
  }
  if (!sweep_json.empty()) {
    sweep_json.erase(sweep_json.size() - 2, 1);  // drop trailing comma
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_json: cannot open " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"online_event_kernel\",\n"
      << "  \"metric\": \"median_run_ms\",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"cases\": [\n"
      << "    {\"case\": \"typed_10k\", \"sites\": " << wc10k.sites
      << ", \"queries\": " << wc10k.queries
      << ", \"run_ms\": " << round2(typed_ms)
      << ", \"events_per_sec\": " << events_per_sec(typed_res, typed_ms)
      << ", \"peak_pending_events\": "
      << typed_res.kernel_stats.peak_pending_events
      << ", \"peak_flights\": " << typed_res.kernel_stats.peak_flights
      << ", \"sites_scored_per_demand\": "
      << round2(sites_scored_per_demand(typed_res.kernel_stats)) << "},\n"
      << sweep_json
      << "  ]\n}\n";
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

/// Steady-state FlowEngine churn: `flows` live flows over `links` shared
/// links, each completion starting a replacement until 4×flows spawns are
/// spent.  Returns wall ms; `*rate_changes` counts re-fill transitions.
double flow_churn_ms(std::size_t flows, std::size_t links,
                     std::uint64_t* completions,
                     std::uint64_t* rate_changes) {
  constexpr std::size_t kPathLen = 4;
  const std::size_t spawns = flows * 4;
  Rng rng(0xf10c5ULL + flows);
  std::vector<std::vector<EdgeId>> paths(spawns);
  for (auto& p : paths) {
    p.reserve(kPathLen);
    for (std::size_t i = 0; i < kPathLen; ++i) {
      p.push_back(static_cast<EdgeId>(
          rng.uniform_u64(0, static_cast<std::uint64_t>(links) - 1)));
    }
  }
  std::vector<double> sizes(spawns);
  for (double& s : sizes) s = rng.uniform(0.5, 2.0);

  TypedEventQueue queue;
  FlowEngine engine(queue, std::vector<double>(links, 1.0));
  std::uint64_t refills = 0;
  engine.set_rate_listener(
      [&refills](std::uint32_t, double, double rate, double, EdgeId) {
        if (rate > 0.0) ++refills;
      });
  std::size_t next = 0;
  std::uint64_t done = 0;
  auto launch = [&] {
    if (next >= spawns) return;
    const std::size_t i = next++;
    engine.start_flow(sizes[i], paths[i], static_cast<std::uint32_t>(i));
  };
  const auto t0 = clock_type::now();
  for (std::size_t i = 0; i < flows; ++i) launch();
  SimEvent ev;
  while (queue.pop(&ev)) {
    if (engine.handle_event(ev) == FlowEngine::kNoFlow) continue;
    ++done;
    launch();
  }
  const auto t1 = clock_type::now();
  if (engine.active_flows() != 0) {
    throw std::runtime_error("bench_json: flow churn left active flows");
  }
  *completions = done;
  *rate_changes = refills;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

int emit_flows(const std::string& out_path, int reps) {
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_json: cannot open " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"flow_backend\",\n"
      << "  \"metric\": \"median_run_ms\",\n"
      << "  \"oversubscription\": 1.0,\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"cases\": [\n";

  // End-to-end: the flow backend's surcharge over the delay table on the
  // same instance, typed kernel, oversubscription 1 (real contention).
  struct ScaleSpec {
    const char* name;
    std::size_t sites;
    std::size_t queries;
  };
  const ScaleSpec scales[] = {
      {"flow_1k", 1'000, 20'000},
      {"flow_10k", 10'000, 20'000},
  };
  for (const ScaleSpec& sp : scales) {
    StreamWorkloadConfig wc;
    wc.sites = sp.sites;
    wc.queries = sp.queries;
    std::cerr << "flow bench: generating " << sp.name << " instance...\n";
    const Instance inst = stream_instance(wc, 0x10f5);
    OnlineConfig cfg;
    cfg.arrival_rate = 20.0;
    // The 10k-site flow run is minutes-long (tens of millions of re-fill
    // transitions); one rep still averages over ~20k transfers.
    const int case_reps = sp.sites >= 10'000 ? 1 : reps;
    std::vector<double> table_ms_s, flow_ms_s;
    OnlineResult table_res, flow_res;
    for (int r = 0; r < case_reps; ++r) {
      cfg.network = OnlineNetwork::kTable;
      table_ms_s.push_back(timed_online_ms(inst, cfg, &table_res));
      cfg.network = OnlineNetwork::kFlow;
      flow_ms_s.push_back(timed_online_ms(inst, cfg, &flow_res));
    }
    const double table_ms = median(std::move(table_ms_s));
    const double flow_ms = median(std::move(flow_ms_s));
    const double events_per_sec =
        static_cast<double>(flow_res.kernel_stats.events_processed) /
        (flow_ms / 1000.0);
    const FlowGapStats& g = flow_res.flow_gap;
    out << "    {\"case\": \"" << sp.name << "\", \"sites\": " << sp.sites
        << ", \"queries\": " << sp.queries
        << ", \"table_run_ms\": " << round2(table_ms)
        << ", \"flow_run_ms\": " << round2(flow_ms)
        << ", \"flow_overhead_pct\": "
        << round2((flow_ms / table_ms - 1.0) * 100.0)
        << ", \"events_per_sec\": " << static_cast<long long>(events_per_sec)
        << ", \"flows_routed\": " << g.flows_routed
        << ", \"rate_changes\": " << g.rate_changes
        << ", \"gap_breaches\": " << g.gap_breaches << "},\n";
    std::cerr << sp.name << ": table " << table_ms << " ms, flow " << flow_ms
              << " ms (" << (flow_ms / table_ms - 1.0) * 100.0 << "%), "
              << g.flows_routed << " flows, " << g.rate_changes
              << " rate changes, " << g.gap_breaches << " gap breaches\n";
  }

  // Engine-only re-fill churn at fixed live populations.
  struct ChurnSpec {
    std::size_t flows;
    std::size_t links;
  };
  // Larger populations (4096 flows over 10k links) collapse into one
  // giant shared component whose per-completion re-fill cost makes the
  // case minutes-long — out of budget for a committed baseline.
  const ChurnSpec churns[] = {{64, 1'024}, {512, 10'240}};
  for (std::size_t ci = 0; ci < std::size(churns); ++ci) {
    const ChurnSpec& c = churns[ci];
    std::vector<double> samples;
    std::uint64_t completions = 0;
    std::uint64_t rate_changes = 0;
    for (int r = 0; r < reps; ++r) {
      samples.push_back(
          flow_churn_ms(c.flows, c.links, &completions, &rate_changes));
    }
    const double churn_ms = median(std::move(samples));
    const double refill_ns_per_change =
        rate_changes > 0
            ? churn_ms * 1e6 / static_cast<double>(rate_changes)
            : 0.0;
    out << "    {\"case\": \"refill_" << c.flows
        << "\", \"flows\": " << c.flows << ", \"links\": " << c.links
        << ", \"churn_ms\": " << round2(churn_ms)
        << ", \"completions\": " << completions
        << ", \"rate_changes\": " << rate_changes
        << ", \"refill_ns_per_change\": " << round2(refill_ns_per_change)
        << "}" << (ci + 1 < std::size(churns) ? "," : "") << "\n";
    std::cerr << "refill flows=" << c.flows << " links=" << c.links << ": "
              << churn_ms << " ms, " << completions << " completions, "
              << rate_changes << " rate changes ("
              << refill_ns_per_change << " ns/change)\n";
  }

  out << "  ]\n}\n";
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

int emit_throughput(const std::string& out_path, int reps) {
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_json: cannot open " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"stream_throughput\",\n"
      << "  \"metric\": \"median_run_ms\",\n"
      << "  \"epoch_length_s\": 0.05,\n"
      << "  \"arrival_rate_qps\": 20000,\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"cases\": [\n";

  // Pricing kernel vs the reference oracle on identical candidate sets.  The
  // ns/candidate figures are informational (too microscopic for the CI
  // regression guard); the committed speedups document the >=2x contract.
  const std::vector<std::size_t> cand_sizes = {64, 256, 1024, 4096};
  for (const std::size_t n : cand_sizes) {
    const KernelArrays arrays(n);
    const std::size_t iters = std::max<std::size_t>(1, 50'000'000 / n);
    // Warm up, then interleave-free single passes (each pass covers tens of
    // millions of candidate evaluations, amortizing timer noise).
    kernel_ns_per_candidate(arrays, false, iters / 10 + 1);
    const double vec_ns = kernel_ns_per_candidate(arrays, false, iters);
    const double sca_ns = kernel_ns_per_candidate(arrays, true, iters);
    out << "    {\"case\": \"kernel_" << n << "\", \"candidates\": " << n
        << ", \"vectorized_ns_per_candidate\": " << round2(vec_ns)
        << ", \"scalar_ns_per_candidate\": " << round2(sca_ns)
        << ", \"kernel_speedup\": " << round2(sca_ns / vec_ns) << "},\n";
    std::cerr << "kernel n=" << n << ": vectorized " << vec_ns
              << " ns/cand, scalar " << sca_ns << " ns/cand, speedup "
              << sca_ns / vec_ns << "x\n";
  }

  // Shard sweep over the streaming workloads.  The flagship case is the
  // issue's 10k-site / 1M-query target; the small case gives fast signal.
  struct StreamSpec {
    const char* name;
    std::size_t sites;
    std::size_t queries;
  };
  const std::vector<StreamSpec> specs = {
      {"stream_small", 1'000, 100'000},
      {"stream_full", 10'000, 1'000'000},
  };
  const std::vector<std::size_t> shard_counts = {1, 2, 4, 8, 16};

  for (const StreamSpec& spec : specs) {
    StreamWorkloadConfig cfg;
    cfg.sites = spec.sites;
    cfg.queries = spec.queries;
    const auto b0 = clock_type::now();
    const Instance inst = stream_instance(cfg, /*seed=*/42);
    const std::vector<Arrival> stream =
        generate_arrival_stream(inst, /*rate=*/20'000.0, /*seed=*/42);
    const auto b1 = clock_type::now();
    std::cerr << spec.name << ": built " << spec.sites << " sites / "
              << spec.queries << " queries in "
              << std::chrono::duration<double>(b1 - b0).count() << " s\n";

    double base_ms = 0.0;
    for (std::size_t si = 0; si < shard_counts.size(); ++si) {
      const std::size_t shards = shard_counts[si];
      StreamOptions opts;
      opts.shards = shards;
      std::vector<double> samples;
      std::size_t admitted = 0;
      for (int r = 0; r < reps; ++r) {
        const auto t0 = clock_type::now();
        const StreamResult res = run_stream(inst, stream, opts);
        const auto t1 = clock_type::now();
        if (res.queries_admitted + res.queries_rejected != spec.queries) {
          throw std::runtime_error("bench_json: stream lost queries");
        }
        admitted = res.queries_admitted;
        samples.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
      const double run_ms = median(std::move(samples));
      if (shards == 1) base_ms = run_ms;
      const double admitted_per_sec =
          static_cast<double>(admitted) / (run_ms / 1000.0);
      out << "    {\"case\": \"" << spec.name
          << "_s" << shards << "\", \"sites\": " << spec.sites
          << ", \"queries\": " << spec.queries << ", \"shards\": " << shards
          << ", \"run_ms\": " << round2(run_ms)
          << ", \"admitted\": " << admitted
          << ", \"admitted_per_sec\": " << static_cast<long long>(
                 admitted_per_sec)
          << ", \"speedup_vs_1shard\": " << round2(base_ms / run_ms) << "}";
      const bool last = (&spec == &specs.back()) &&
                        (si + 1 == shard_counts.size());
      out << (last ? "" : ",") << "\n";
      std::cerr << spec.name << " shards=" << shards << ": " << run_ms
                << " ms, admitted " << admitted << " ("
                << static_cast<long long>(admitted_per_sec)
                << " q/s), speedup " << base_ms / run_ms << "x\n";
    }
  }

  out << "  ]\n}\n";
  std::cerr << "wrote " << out_path << "\n";
  return 0;
}

int run(int argc, char** argv) {
  set_log_level_from_env();
  const Args args(argc, argv);
  const int reps = std::max(1, static_cast<int>(args.get_int("reps", 9)));
  const int substrate_reps =
      std::max(1, static_cast<int>(args.get_int("substrate-reps", 5)));
  const std::string out_path = args.get("out", "BENCH_appro.json");
  const std::string substrate_path =
      args.get("substrate-out", "BENCH_substrate.json");
  const int repair_reps =
      std::max(1, static_cast<int>(args.get_int("repair-reps", 9)));
  const std::string repair_path = args.get("repair-out", "BENCH_repair.json");
  // The flagship throughput case runs 1M queries per (shard count, rep):
  // one rep keeps the full suite in minutes while still averaging over a
  // million admissions.
  const int throughput_reps =
      std::max(1, static_cast<int>(args.get_int("throughput-reps", 1)));
  const std::string throughput_path =
      args.get("throughput-out", "BENCH_throughput.json");
  // Head-to-head reps for the 10k-site kernel comparison; the 1M/10M
  // horizon sweeps always run once (each averages over >=1M admissions).
  const int online_reps =
      std::max(1, static_cast<int>(args.get_int("online-reps", 3)));
  const std::string online_path =
      args.get("online-out", "BENCH_online.json");
  const int obs_reps =
      std::max(1, static_cast<int>(args.get_int("obs-reps", 9)));
  const std::string obs_path = args.get("obs-out", "BENCH_obs.json");
  const int flows_reps =
      std::max(1, static_cast<int>(args.get_int("flows-reps", 3)));
  const std::string flows_path = args.get("flows-out", "BENCH_flows.json");

  // `--only SECTION` regenerates a single anchor after a targeted change
  // (appro | substrate | repair | throughput | online | obs | flows).
  const std::string only = args.get("only", "");
  const auto wants = [&only](const char* section) {
    return only.empty() || only == section;
  };
  int rc = 0;
  if (wants("appro") && (rc = emit_appro(out_path, reps)) != 0) return rc;
  if (wants("substrate") &&
      (rc = emit_substrate(substrate_path, substrate_reps)) != 0) {
    return rc;
  }
  if (wants("repair") && (rc = emit_repair(repair_path, repair_reps)) != 0) {
    return rc;
  }
  if (wants("throughput") &&
      (rc = emit_throughput(throughput_path, throughput_reps)) != 0) {
    return rc;
  }
  if (wants("online") && (rc = emit_online(online_path, online_reps)) != 0) {
    return rc;
  }
  if (wants("obs") && (rc = emit_obs(obs_path, obs_reps)) != 0) return rc;
  if (wants("flows") && (rc = emit_flows(flows_path, flows_reps)) != 0) {
    return rc;
  }
  return 0;
}

}  // namespace
}  // namespace edgerep

int main(int argc, char** argv) { return edgerep::run(argc, argv); }
