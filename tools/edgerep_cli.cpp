// edgerep command-line tool: the operator-facing entry point tying the
// library together.  Subcommands:
//
//   generate  — create a problem instance (paper-style random workload or a
//               config file) and archive it
//   solve     — run a placement algorithm on an instance; save the plan
//   validate  — independently re-check a plan against every constraint
//   simulate  — execute a plan on the discrete-event testbed
//   analyze   — availability + consistency economics of a plan
//   online    — reactive admission over arrivals (optionally seeded by a plan)
//   genfaults — draw a random fault scenario for an instance; archive it
//   repair    — solve, inject faults, repair incrementally; compare oracle
//
// Example session:
//   edgerep_cli generate --size 32 --seed 7 --out inst.txt
//   edgerep_cli solve --instance inst.txt --algorithm appro --out plan.txt
//   edgerep_cli validate --instance inst.txt --plan plan.txt
//   edgerep_cli simulate --instance inst.txt --plan plan.txt --discipline ps
//   edgerep_cli analyze --instance inst.txt --plan plan.txt --failure-prob 0.1
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "cloud/plan_io.h"
#include "edgerep/edgerep.h"

namespace edgerep {
namespace {

int usage() {
  std::cout <<
      "usage: edgerep_cli <command> [options]\n"
      "\n"
      "commands:\n"
      "  generate --out FILE [--scenario NAME] [--config FILE] [--size N]\n"
      "           [--queries N] [--f N] [--k N] [--seed S]\n"
      "  scenarios                    list the built-in workload scenarios\n"
      "  solve    --instance FILE --algorithm NAME [--out FILE] [--improve]\n"
      "           NAME: appro | greedy | graph | popularity | random |\n"
      "                 centrality | lp-rounding | exact\n"
      "  validate --instance FILE --plan FILE\n"
      "  simulate --instance FILE --plan FILE [--discipline fifo|ps]\n"
      "           [--transfers delay|flow] [--arrival-rate R]\n"
      "           [--capacity-factor F] [--seed S]\n"
      "  analyze  --instance FILE --plan FILE [--failure-prob P]\n"
      "           [--growth G] [--trials N] [--seed S]\n"
      "  online   --instance FILE [--plan FILE] [--arrival-rate R]\n"
      "           [--no-reactive] [--seed S] [--faults FILE] [--no-repair]\n"
      "           [--network table|flow] [--oversub F]\n"
      "           --network=flow routes admitted transfers as max-min fair\n"
      "           flows over per-edge capacities (divided by --oversub;\n"
      "           0 = contention-free, bit-identical to table) and reports\n"
      "           the predicted-vs-actual SLO gap\n"
      "           [--gen-sites N] [--gen-queries N] [--gen-max-demands F]\n"
      "           [--gen-seed S]  (generate a stream-workload instance\n"
      "           in-process instead of --instance)\n"
      "           [--gen-zipf S] [--gen-zipf-drift N]  (Zipf(S) dataset\n"
      "           popularity whose hot set rotates every N queries — the\n"
      "           watchdog's flash-crowd workload)\n"
      "           [--wave-amplitude A] [--wave-period T]  (diurnal arrival\n"
      "           wave: rate modulated by 1 + A*sin(2*pi*t/T))\n"
      "           [--gen-faults N] [--gen-fault-seed S]  (draw N crashes +\n"
      "           N capacity losses over the arrival horizon in-process)\n"
      "           [--serve PORT] [--sample-interval MS] [--serve-linger SEC]\n"
      "           [--timeseries-out FILE]\n"
      "           --serve starts an embedded HTTP server on 127.0.0.1:PORT\n"
      "           (0 = ephemeral) with /metrics /healthz /status /timeseries\n"
      "           /quitquitquit; it lingers SEC seconds after the run so\n"
      "           scrapers can read the final state\n"
      "  stream   --instance FILE [--shards N] [--epoch-ms MS]\n"
      "           [--arrival-rate R] [--seed S] [--max-requeues N]\n"
      "           [--boundary none|dc] [--serial]\n"
      "           [--id-order] [--wave-amplitude A] [--wave-period T]\n"
      "           [--json-out FILE] [--out FILE]\n"
      "           continuous admission: Poisson arrivals batched into\n"
      "           micro-epochs, admitted by region-sharded engines and\n"
      "           reconciled against the global plan\n"
      "  genfaults --instance FILE --out FILE [--config FILE] [--crashes N]\n"
      "           [--links N] [--degrade N] [--horizon T] [--mttr T] [--seed S]\n"
      "  repair   --instance FILE --faults FILE [--until T] [--full]\n"
      "           [--out FILE]\n"
      "  diff     --instance FILE --plan FILE --plan2 FILE\n"
      "  postmortem --journal FILE [--diff FILE2] [--json-out FILE] [--top N]\n"
      "           [--alerts]\n"
      "           replay a flight-recorder journal: causal timelines, deadline\n"
      "           slack decomposition, SLO-breach attribution by site/dataset/\n"
      "           role (and bottleneck link on --network=flow journals),\n"
      "           stream epoch stats; --diff compares two journals and\n"
      "           reports the first divergent record; --alerts prints only\n"
      "           the reconstructed watchdog alert timeline with per-window\n"
      "           breach counts\n"
      "\n"
      "observability (any command):\n"
      "  --metrics-out FILE   write engine counters/gauges/histograms\n"
      "                       (.prom/.txt: Prometheus text, else JSON)\n"
      "  --trace-out FILE     write chrome://tracing JSON of engine phases\n"
      "  --audit-out FILE     write per-demand admission audit log (JSON)\n"
      "  --record FILE        write the deterministic flight-recorder journal\n"
      "                       (binary; analyze with `postmortem`)\n"
      "  --record-mode MODE   full (default) keeps every record; ring keeps\n"
      "                       the last --record-ring N (default 65536, at\n"
      "                       most 16777216)\n"
      "  --watchdog           stream workload-drift / SLO-anomaly detectors\n"
      "                       over the run; alerts print after the run, are\n"
      "                       journaled when --record is on, and serve at\n"
      "                       /alerts under --serve\n"
      "environment: EDGEREP_LOG=debug|info|warn|error, EDGEREP_OBS=1,\n"
      "             EDGEREP_RECORD=full|ring[:N] (N <= 16777216),\n"
      "             EDGEREP_WATCHDOG=1\n";
  return 2;
}

Instance load_instance(const Args& args) {
  const std::string path = args.get("instance", "");
  if (path.empty()) throw std::runtime_error("--instance is required");
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open instance file: " + path);
  return read_instance(is);
}

ReplicaPlan load_plan(const Instance& inst, const Args& args) {
  const std::string path = args.get("plan", "");
  if (path.empty()) throw std::runtime_error("--plan is required");
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open plan file: " + path);
  return read_plan(inst, is);
}

void print_metrics(const ReplicaPlan& plan) {
  const PlanMetrics pm = evaluate(plan);
  std::cout << "admitted volume: " << pm.admitted_volume << " GB\n"
            << "assigned volume: " << pm.assigned_volume << " GB\n"
            << "admitted queries: " << pm.admitted_queries << "/"
            << pm.total_queries << " (throughput " << pm.throughput << ")\n"
            << "replicas placed: " << pm.replicas_placed << "\n"
            << "resource utilization: " << pm.utilization << "\n";
}

int cmd_scenarios() {
  for (const Scenario& s : builtin_scenarios()) {
    std::cout << s.name << "\n    " << s.description << "\n";
  }
  return 0;
}

int cmd_diff(const Args& args) {
  const Instance inst = load_instance(args);
  const ReplicaPlan before = load_plan(inst, args);
  const std::string path = args.get("plan2", "");
  if (path.empty()) throw std::runtime_error("--plan2 is required");
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open plan file: " + path);
  const ReplicaPlan after = read_plan(inst, is);
  const PlanDiff d = diff_plans(before, after);
  print_diff(std::cout, d, inst);
  return 0;
}

int cmd_generate(const Args& args) {
  WorkloadConfig cfg;
  if (args.has("scenario")) {
    cfg = find_scenario(args.get("scenario", "paper-default")).config;
  }
  if (args.has("config")) {
    std::ifstream is(args.get("config", ""));
    if (!is) throw std::runtime_error("cannot open config file");
    cfg = read_workload_config(is);
  }
  if (args.has("size")) {
    cfg.network_size = args.get_count("size", 32);
  }
  if (args.has("queries")) {
    cfg.min_queries = cfg.max_queries = args.get_count("queries", 60);
  }
  if (args.has("f")) {
    cfg.max_datasets_per_query = args.get_count("f", 5);
  }
  if (args.has("k")) {
    cfg.max_replicas = args.get_count("k", 3);
  }
  const Instance inst = generate_instance(cfg, args.get_seed("seed", 1));
  const std::string out = args.get("out", "");
  if (out.empty()) throw std::runtime_error("--out is required");
  std::ofstream os(out);
  write_instance(os, inst);
  std::cout << "wrote " << out << ": " << inst.sites().size() << " sites, "
            << inst.datasets().size() << " datasets, "
            << inst.queries().size() << " queries, K=" << inst.max_replicas()
            << "\n";
  return 0;
}

int cmd_solve(const Args& args) {
  const Instance inst = load_instance(args);
  const std::string algo = args.get("algorithm", "appro");
  ReplicaPlan plan(inst);
  if (algo == "appro") {
    const ApproResult r = inst.queries().size() > 0 ? appro_g(inst)
                                                    : ApproResult{
                                                          ReplicaPlan(inst),
                                                          DualState(inst),
                                                          0.0,
                                                          {},
                                                          0,
                                                          0};
    plan = r.plan;
    std::cout << "dual upper bound: " << r.dual_objective << " GB\n";
  } else if (algo == "greedy") {
    plan = greedy_g(inst).plan;
  } else if (algo == "graph") {
    plan = graph_g(inst).plan;
  } else if (algo == "popularity") {
    plan = popularity_g(inst).plan;
  } else if (algo == "random") {
    plan = random_baseline(inst, args.get_seed("seed", 1)).plan;
  } else if (algo == "centrality") {
    plan = centrality_g(inst).plan;
  } else if (algo == "lp-rounding") {
    plan = lp_rounding(inst).plan;
  } else if (algo == "exact") {
    const auto res = solve_exact(inst);
    if (!res) throw std::runtime_error("exact solver exhausted its budget");
    std::cout << (res->proven_optimal ? "proven optimal" : "best incumbent")
              << ", LP bound " << res->lp_upper_bound << " GB, "
              << res->nodes_explored << " B&B nodes\n";
    plan = res->plan;
  } else {
    throw std::runtime_error("unknown algorithm: " + algo);
  }
  if (args.get_bool("improve", false)) {
    const LocalSearchResult ls = improve_plan(plan);
    std::cout << "local search: +" << ls.queries_admitted << " queries, "
              << ls.relocations << " relocations\n";
    plan = ls.plan;
  }
  print_metrics(plan);
  const ValidationResult vr = validate(plan);
  std::cout << "valid: " << (vr.ok ? "yes" : "NO") << "\n";
  const std::string out = args.get("out", "");
  if (!out.empty()) {
    std::ofstream os(out);
    write_plan(os, plan);
    std::cout << "plan written to " << out << "\n";
  }
  return vr.ok ? 0 : 1;
}

int cmd_validate(const Args& args) {
  const Instance inst = load_instance(args);
  const ReplicaPlan plan = load_plan(inst, args);
  const ValidationResult vr = validate(plan);
  if (vr.ok) {
    std::cout << "plan satisfies all constraints\n";
    print_metrics(plan);
    return 0;
  }
  std::cout << vr.violations.size() << " violation(s):\n";
  for (const std::string& v : vr.violations) std::cout << "  " << v << "\n";
  return 1;
}

int cmd_simulate(const Args& args) {
  const Instance inst = load_instance(args);
  const ReplicaPlan plan = load_plan(inst, args);
  SimConfig cfg;
  cfg.arrival_rate = args.get_double("arrival-rate", 2.0);
  cfg.capacity_factor = args.get_double("capacity-factor", 1.0);
  cfg.seed = args.get_seed("seed", 0xd15c);
  const std::string disc = args.get("discipline", "fifo");
  if (disc == "ps") {
    cfg.discipline = SimConfig::Discipline::kProcessorSharing;
  } else if (disc != "fifo") {
    throw std::runtime_error("unknown discipline: " + disc);
  }
  const std::string tm = args.get("transfers", "delay");
  if (tm == "flow") {
    cfg.transfers = SimConfig::TransferModel::kMaxMinFair;
  } else if (tm != "delay") {
    throw std::runtime_error("unknown transfer model: " + tm);
  }
  const SimReport rep = simulate(plan, cfg);
  std::cout << "served: " << rep.served_queries << "/" << rep.total_queries
            << ", admitted (deadline met): " << rep.admitted_queries
            << " (throughput " << rep.throughput << ")\n"
            << "admitted volume: " << rep.admitted_volume << " GB\n"
            << "response mean/p95/max: " << rep.mean_response << " / "
            << rep.p95_response << " / " << rep.max_response << " s\n"
            << "makespan: " << rep.makespan << " s\n";
  return 0;
}

int cmd_analyze(const Args& args) {
  const Instance inst = load_instance(args);
  const ReplicaPlan plan = load_plan(inst, args);
  AvailabilityConfig acfg;
  acfg.site_failure_prob = args.get_double("failure-prob", 0.05);
  acfg.trials = args.get_count("trials", 10000);
  acfg.seed = args.get_seed("seed", 0xa1b2);
  const AvailabilityReport avail = analyze_availability(plan, acfg);
  std::cout << "availability @ p=" << acfg.site_failure_prob << ": mean "
            << avail.mean_survival << ", min " << avail.min_survival
            << ", expected surviving volume "
            << avail.expected_surviving_volume << " GB\n";
  const double growth = args.get_double("growth", 0.1);
  const ConsistencyReport cons =
      analyze_consistency(plan, GrowthModel::proportional(inst, growth));
  std::cout << "consistency @ " << growth * 100 << "%/h growth: "
            << cons.total_traffic_gb_per_hour << " GB/h update traffic, "
            << "cost " << cons.total_transfer_cost_per_hour
            << "/h, mean staleness " << cons.mean_staleness_gb << " GB, "
            << "net benefit " << cons.net_benefit << "\n";
  return 0;
}

FaultTrace load_faults(const Instance& inst, const Args& args) {
  const std::string path = args.get("faults", "");
  if (path.empty()) throw std::runtime_error("--faults is required");
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open fault trace file: " + path);
  return read_fault_trace(is, inst);
}

/// Register the live-telemetry series the online serve path samples: the
/// online counters/gauges, the solver dual-price board, and the in-use GHz
/// of the first sites (capped so a 1000-site run doesn't make every sample
/// copy the board 1000 times).
void add_online_series(obs::TimeSeriesSampler& sampler,
                       OnlineStatusBoard& board, std::size_t site_count) {
  sampler.add_counter_series("edgerep_online_arrivals_total");
  sampler.add_counter_series("edgerep_online_queries_admitted_total");
  sampler.add_counter_series("edgerep_online_queries_rejected_total");
  sampler.add_counter_series("edgerep_online_queries_failed_by_fault_total");
  sampler.add_counter_series("edgerep_online_demands_relocated_total");
  sampler.add_counter_series("edgerep_online_fault_events_total");
  sampler.add_series("online_sim_clock_seconds",
                     [&board] { return board.sim_clock(); });
  sampler.add_series("online_inflight_demands", [&board] {
    return static_cast<double>(board.inflight());
  });
  sampler.add_series("online_utilization",
                     [&board] { return board.utilization(); });
  // Event-core internals published by the status tick (sim/online.cpp):
  // queue depth and high-water, flight-slab occupancy and generation churn,
  // immediates-ring burst depth.
  sampler.add_gauge_series("edgerep_kernel_pending_events");
  sampler.add_gauge_series("edgerep_kernel_peak_pending_events");
  sampler.add_gauge_series("edgerep_kernel_live_flights");
  sampler.add_gauge_series("edgerep_kernel_peak_flights");
  sampler.add_gauge_series("edgerep_kernel_flight_destroys");
  sampler.add_gauge_series("edgerep_kernel_ring_high_water");
  // Flow-backend gauges (all zero on --network=table runs).
  sampler.add_gauge_series("edgerep_online_active_flows");
  sampler.add_gauge_series("edgerep_online_flow_rate_changes");
  sampler.add_gauge_series("edgerep_online_flow_late_transfers");
  sampler.add_series("dual_theta_max",
                     [] { return obs::dual_prices().max_theta(); });
  sampler.add_series("dual_theta_touched_sites", [] {
    return static_cast<double>(obs::dual_prices().touched_sites());
  });
  constexpr std::size_t kMaxPerSiteSeries = 16;
  const std::size_t tracked = std::min(site_count, kMaxPerSiteSeries);
  for (std::size_t i = 0; i < tracked; ++i) {
    sampler.add_series("site" + std::to_string(i) + "_in_use_ghz",
                       [&board, i] {
                         const OnlineStatus s = board.read();
                         return i < s.site_in_use.size() ? s.site_in_use[i]
                                                         : 0.0;
                       });
  }
}

/// Wire the four read endpoints (+ the shutdown latch) onto the server.
void add_online_routes(obs::HttpServer& server, OnlineStatusBoard& board,
                       obs::TimeSeriesSampler& sampler,
                       std::atomic<bool>& quit) {
  server.route("/metrics", [](const obs::HttpRequest&) {
    std::ostringstream os;
    obs::metrics().write_prometheus(os);
    return obs::HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                             os.str()};
  });
  server.route("/healthz", [&server](const obs::HttpRequest&) {
    std::ostringstream os;
    os << "{\"ok\": true, \"requests_served\": " << server.requests_served()
       << "}\n";
    return obs::HttpResponse{200, "application/json", os.str()};
  });
  server.route("/status", [&board](const obs::HttpRequest&) {
    std::ostringstream os;
    board.write_json(os);
    return obs::HttpResponse{200, "application/json", os.str()};
  });
  server.route("/timeseries", [&sampler](const obs::HttpRequest& req) {
    std::ostringstream os;
    if (req.query.find("format=csv") != std::string::npos) {
      sampler.write_csv(os);
      return obs::HttpResponse{200, "text/csv", os.str()};
    }
    sampler.write_json(os);
    return obs::HttpResponse{200, "application/json", os.str()};
  });
  server.route("/alerts", [](const obs::HttpRequest&) {
    std::ostringstream os;
    obs::watchdog().write_json(os);
    return obs::HttpResponse{200, "application/json", os.str()};
  });
  server.route("/quitquitquit", [&quit](const obs::HttpRequest&) {
    quit.store(true, std::memory_order_release);
    return obs::HttpResponse{200, "text/plain; charset=utf-8",
                             "shutting down\n"};
  });
}

int cmd_online(const Args& args) {
  // `--gen-sites N --gen-queries M` sidesteps the instance file and runs on
  // a deterministic stream-workload instance — the large-N smoke path (an
  // on-disk 1M-query instance would be hundreds of MB).
  Instance inst = [&args] {
    if (!args.has("gen-sites") && !args.has("gen-queries")) {
      return load_instance(args);
    }
    StreamWorkloadConfig wc;
    wc.sites = args.get_count("gen-sites", 1024);
    wc.queries = args.get_count("gen-queries", 100'000);
    wc.max_demands = args.get_count("gen-max-demands", 1);
    wc.zipf_exponent = args.get_double("gen-zipf", 0.0);
    wc.zipf_drift_period = args.get_count("gen-zipf-drift", 0);
    return stream_instance(wc, args.get_seed("gen-seed", 0x5eed));
  }();
  OnlineConfig cfg;
  cfg.arrival_rate = args.get_double("arrival-rate", 2.0);
  cfg.wave_amplitude = args.get_double("wave-amplitude", 0.0);
  cfg.wave_period = args.get_double("wave-period", 0.0);
  cfg.seed = args.get_seed("seed", 0x0a11);
  cfg.reactive_replicas = !args.get_bool("no-reactive", false);
  cfg.repair_on_failure = !args.get_bool("no-repair", false);
  const std::string network = args.get("network", "table");
  if (network == "flow") {
    cfg.network = OnlineNetwork::kFlow;
  } else if (network != "table") {
    throw std::runtime_error("--network must be table or flow");
  }
  cfg.oversubscription = args.get_double("oversub", 1.0);
  if (args.has("faults")) cfg.faults = load_faults(inst, args);
  // `--gen-faults N` draws N site crashes + N capacity losses (with repair)
  // over the arrival horizon in-process — how the large-N golden smoke
  // reaches the fault, shed, and relocation paths on a generated instance
  // that has no trace file.
  if (args.has("gen-faults")) {
    if (args.has("faults")) {
      throw std::runtime_error("--gen-faults conflicts with --faults");
    }
    const std::size_t n = args.get_count("gen-faults", 4);
    FaultScenarioConfig fc;
    fc.horizon = 0.8 * static_cast<double>(inst.queries().size()) /
                 std::max(cfg.arrival_rate, 1e-9);
    fc.site_crashes = n;
    fc.capacity_losses = n;
    fc.mean_repair_time = fc.horizon / 8.0;
    fc.cloudlets_only = false;
    cfg.faults =
        generate_fault_trace(inst, fc, args.get_seed("gen-fault-seed", 0xfa11));
  }

  const bool serve = args.has("serve");
  const std::string ts_out = args.get("timeseries-out", "");
  const bool sampling = serve || !ts_out.empty();
  const std::uint64_t sample_interval = args.get_count("sample-interval", 100);
  const double linger = args.get_double("serve-linger", 30.0);

  OnlineStatusBoard board;
  obs::TimeSeriesSampler sampler;
  obs::HttpServer server;
  std::atomic<bool> quit{false};
  if (sampling) {
    // Live sampling needs the counters/gauges flowing; the run itself is
    // bit-identical either way (pinned by obs_equivalence_test).
    obs::set_metrics_enabled(true);
    cfg.status_board = &board;
    add_online_series(sampler, board, inst.sites().size());
  }
  if (serve) {
    add_online_routes(server, board, sampler, quit);
    server.start(
        static_cast<std::uint16_t>(args.get_count("serve", 0, 65535)));
    std::cout << "serving telemetry on http://127.0.0.1:" << server.port()
              << " (/metrics /healthz /status /timeseries /alerts)\n";
  }
  if (sampling) sampler.start(sample_interval);

  OnlineResult res;
  if (args.has("plan")) {
    const ReplicaPlan seed_plan = load_plan(inst, args);
    res = run_online(inst, cfg, &seed_plan);
  } else {
    res = run_online(inst, cfg);
  }
  std::cout << "online admission: " << res.admitted_queries << "/"
            << inst.queries().size() << " (throughput " << res.throughput
            << ")\nadmitted volume: " << res.admitted_volume
            << " GB\npeak utilization: " << res.peak_utilization << "\n";
  const OnlineKernelStats& ks = res.kernel_stats;
  std::cout << "events: " << ks.events_processed
            << ", peak pending: " << ks.peak_pending_events
            << ", peak flights: " << ks.peak_flights << "\n";
  std::cout << "admission scan: " << ks.site_selections
            << " site selections, " << ks.sites_scored << " sites scored, "
            << ks.deadline_tests << " deadline tests\n";
  std::cout << "result hash: " << std::hex << std::setw(16)
            << std::setfill('0') << online_result_hash(res) << std::dec
            << std::setfill(' ') << "\n";
  if (!cfg.faults.empty()) {
    std::cout << "faults applied: " << res.fault_events_applied
              << ", queries failed by fault: " << res.queries_failed_by_fault
              << ", demands relocated: " << res.demands_relocated
              << ", replicas lost: " << res.replicas_lost_to_faults << "\n";
  }
  std::cout << "deadline SLO: " << res.slo.deadline_hits << "/"
            << res.slo.admitted_queries << " hits (ratio "
            << res.slo.hit_ratio << "), slack p50/p95/p99: "
            << res.slo.p50_slack << " / " << res.slo.p95_slack << " / "
            << res.slo.p99_slack << " s\n";
  if (cfg.network == OnlineNetwork::kFlow) {
    const FlowGapStats& g = res.flow_gap;
    std::cout << "SLO gap: flows " << g.flows_routed << ", rate changes "
              << g.rate_changes << ", predicted hits " << g.predicted_hits
              << "/" << g.queries_compared << ", actual hits "
              << g.actual_hits << ", gap breaches " << g.gap_breaches
              << ", stretch max/mean " << g.max_stretch << " / "
              << g.mean_stretch << " s\n";
  }
  if (obs::watchdog_enabled()) {
    const obs::WatchdogStats& w = res.watchdog;
    std::cout << "alerts: " << w.opened << " opened, " << w.resolved
              << " resolved, " << w.open_at_end << " still open, worst "
              << obs::to_string(
                     static_cast<obs::AlertSeverity>(w.worst_severity))
              << " (hotspot " << w.opened_by_kind[0] << ", overload "
              << w.opened_by_kind[1] << ", rate " << w.opened_by_kind[2]
              << ", breach " << w.opened_by_kind[3] << ", stretch "
              << w.opened_by_kind[4] << ")\n";
  }

  if (serve && linger > 0.0) {
    // Keep the endpoints up so scrapers can read the final state; a GET on
    // /quitquitquit (or the linger budget) ends the wait.
    std::cout << "lingering " << linger
              << " s for scrapers (GET /quitquitquit to exit now)\n";
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(linger);
    while (!quit.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (sampling) {
    sampler.stop();
    if (!ts_out.empty()) {
      std::ofstream os(ts_out);
      if (!os) throw std::runtime_error("cannot open output file: " + ts_out);
      const auto dot = ts_out.rfind('.');
      if (dot != std::string::npos && ts_out.substr(dot) == ".csv") {
        sampler.write_csv(os);
      } else {
        sampler.write_json(os);
      }
      std::cout << "time series written to " << ts_out << " ("
                << sampler.total_samples() << " samples)\n";
    }
  }
  server.stop();
  return 0;
}

int cmd_stream(const Args& args) {
  const Instance inst = load_instance(args);
  StreamOptions opts;
  opts.shards = args.get_count("shards", 1);
  opts.epoch_length = args.get_double("epoch-ms", 50.0) / 1000.0;
  opts.max_requeues = args.get_count("max-requeues", 2);
  opts.parallel = !args.get_bool("serial", false);
  const std::string boundary = args.get("boundary", "none");
  if (boundary == "dc") {
    opts.boundary = BoundaryPolicy::kDataCenters;
  } else if (boundary != "none") {
    throw std::runtime_error("unknown boundary policy: " + boundary);
  }
  const double rate = args.get_double("arrival-rate", 100.0);
  const std::uint64_t seed = args.get_seed("seed", 0x57e4);
  const ArrivalOrder order = args.get_bool("id-order", false)
                                 ? ArrivalOrder::kQueryId
                                 : ArrivalOrder::kShuffled;
  const std::vector<Arrival> stream = generate_arrival_stream(
      inst, rate, seed, order, args.get_double("wave-amplitude", 0.0),
      args.get_double("wave-period", 0.0));

  const auto t0 = std::chrono::steady_clock::now();
  const StreamResult res = run_stream(inst, stream, opts);
  const auto t1 = std::chrono::steady_clock::now();
  const double run_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double admitted_per_sec =
      run_ms > 0.0
          ? static_cast<double>(res.queries_admitted) / (run_ms / 1000.0)
          : 0.0;

  std::cout << "streamed " << stream.size() << " arrivals through "
            << opts.shards << " shard(s) in " << res.epochs << " epochs ("
            << run_ms << " ms, "
            << static_cast<long long>(admitted_per_sec)
            << " admitted/s)\n"
            << "admitted: " << res.queries_admitted << ", rejected: "
            << res.queries_rejected << ", requeues: " << res.requeues
            << ", reconcile conflicts: " << res.conflicts << "\n";
  for (const ShardStats& st : res.shard_stats) {
    std::cout << "  shard " << (&st - res.shard_stats.data()) << ": routed "
              << st.routed << ", admitted " << st.admitted << ", infeasible "
              << st.infeasible << ", conflicts " << st.conflicts << "\n";
  }
  print_metrics(res.plan);
  if (obs::watchdog_enabled()) {
    const obs::WatchdogStats w = obs::watchdog().stats();
    std::cout << "alerts: " << w.opened << " opened, " << w.resolved
              << " resolved, " << w.open_at_end << " still open, worst "
              << obs::to_string(
                     static_cast<obs::AlertSeverity>(w.worst_severity))
              << " (hotspot " << w.opened_by_kind[0] << ", overload "
              << w.opened_by_kind[1] << ", rate " << w.opened_by_kind[2]
              << ", breach " << w.opened_by_kind[3] << ", stretch "
              << w.opened_by_kind[4] << ")\n";
  }
  const ValidationResult vr = validate(res.plan);
  std::cout << "valid: " << (vr.ok ? "yes" : "NO") << "\n";
  for (const std::string& v : vr.violations) std::cout << "  " << v << "\n";

  const std::string json_out = args.get("json-out", "");
  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) throw std::runtime_error("cannot open output file: " + json_out);
    os << "{\n"
       << "  \"shards\": " << opts.shards << ",\n"
       << "  \"epochs\": " << res.epochs << ",\n"
       << "  \"arrivals\": " << stream.size() << ",\n"
       << "  \"admitted\": " << res.queries_admitted << ",\n"
       << "  \"rejected\": " << res.queries_rejected << ",\n"
       << "  \"requeues\": " << res.requeues << ",\n"
       << "  \"conflicts\": " << res.conflicts << ",\n"
       << "  \"ledger_reserves\": " << res.ledger_reserves << ",\n"
       << "  \"ledger_releases\": " << res.ledger_releases << ",\n"
       << "  \"admitted_volume\": " << res.metrics.admitted_volume << ",\n"
       << "  \"total_replicas\": " << res.plan.total_replicas() << ",\n"
       << "  \"run_ms\": " << run_ms << ",\n"
       << "  \"valid\": " << (vr.ok ? "true" : "false") << "\n"
       << "}\n";
    std::cout << "summary written to " << json_out << "\n";
  }
  const std::string out = args.get("out", "");
  if (!out.empty()) {
    std::ofstream os(out);
    write_plan(os, res.plan);
    std::cout << "plan written to " << out << "\n";
  }
  return vr.ok ? 0 : 1;
}

int cmd_genfaults(const Args& args) {
  const Instance inst = load_instance(args);
  FaultScenarioConfig cfg;
  if (args.has("config")) {
    std::ifstream is(args.get("config", ""));
    if (!is) throw std::runtime_error("cannot open fault config file");
    cfg = read_fault_config(is);
  }
  if (args.has("crashes")) {
    cfg.site_crashes = args.get_count("crashes", 1);
  }
  if (args.has("links")) {
    cfg.link_failures = args.get_count("links", 0);
  }
  if (args.has("degrade")) {
    cfg.capacity_losses = args.get_count("degrade", 0);
  }
  if (args.has("horizon")) cfg.horizon = args.get_double("horizon", 50.0);
  if (args.has("mttr")) cfg.mean_repair_time = args.get_double("mttr", 10.0);
  const FaultTrace trace =
      generate_fault_trace(inst, cfg, args.get_seed("seed", 0xfa17));
  const std::string out = args.get("out", "");
  if (out.empty()) throw std::runtime_error("--out is required");
  std::ofstream os(out);
  write_fault_trace(os, trace);
  std::cout << "wrote " << out << ": " << trace.size() << " events ("
            << cfg.site_crashes << " crashes, " << cfg.link_failures
            << " link failures, " << cfg.capacity_losses
            << " degradations)\n";
  return 0;
}

int cmd_repair(const Args& args) {
  const Instance inst = load_instance(args);
  const FaultTrace trace = load_faults(inst, args);
  ApproResult solved = appro_g(inst);
  const PlanMetrics before = evaluate(solved.plan);
  std::cout << "pre-fault plan: " << before.admitted_queries << "/"
            << before.total_queries << " admitted, "
            << before.admitted_volume << " GB\n";
  FaultState faults(inst);
  faults.apply_until(trace, args.get_double("until",
                                            std::numeric_limits<double>::max()));
  std::cout << "faults applied: " << faults.events_applied() << " events, "
            << faults.sites_down() << " sites down, " << faults.links_down()
            << " links down\n";
  const RepairEngine engine(inst);
  RepairOptions opts;
  opts.full_recompute = args.get_bool("full", false);
  const RepairStats st = engine.repair(solved.plan, solved.duals, faults, opts);
  const PlanMetrics after = evaluate(solved.plan);
  std::cout << (opts.full_recompute ? "full recompute" : "incremental repair")
            << ": evicted " << st.queries_evicted << " (" << st.evicted_volume
            << " GB), re-admitted " << st.queries_readmitted << " ("
            << st.readmitted_volume << " GB), lost " << st.queries_lost
            << "\nreplicas lost/placed: " << st.replicas_lost << "/"
            << st.replicas_placed << "\npost-repair plan: "
            << after.admitted_queries << "/" << after.total_queries
            << " admitted, " << after.admitted_volume << " GB\n";
  const ValidationResult vr = validate_under_faults(solved.plan, faults);
  std::cout << "valid under faults: " << (vr.ok ? "yes" : "NO") << "\n";
  for (const std::string& v : vr.violations) std::cout << "  " << v << "\n";
  const std::string out = args.get("out", "");
  if (!out.empty()) {
    std::ofstream os(out);
    write_plan(os, solved.plan);
    std::cout << "repaired plan written to " << out << "\n";
  }
  return vr.ok ? 0 : 1;
}

int cmd_postmortem(const Args& args) {
  const std::string path = args.get("journal", "");
  if (path.empty()) throw std::runtime_error("--journal is required");
  obs::Journal journal;
  std::string err;
  if (!obs::read_journal_file(path, &journal, &err)) {
    throw std::runtime_error("cannot read journal " + path + ": " + err);
  }
  const std::string diff_path = args.get("diff", "");
  if (!diff_path.empty()) {
    obs::Journal other;
    if (!obs::read_journal_file(diff_path, &other, &err)) {
      throw std::runtime_error("cannot read journal " + diff_path + ": " +
                               err);
    }
    const obs::JournalDiff d = obs::diff_journals(journal, other);
    obs::write_diff_text(std::cout, d);
    return d.identical ? 0 : 1;
  }
  const obs::PostmortemReport report = obs::analyze_journal(journal);
  const std::size_t top = args.get_count("top", 10);
  if (args.get_bool("alerts", false)) {
    obs::write_alerts_text(std::cout, report);
    return 0;
  }
  obs::write_report_text(std::cout, report, top);
  const std::string json_out = args.get("json-out", "");
  if (!json_out.empty()) {
    std::ofstream os(json_out);
    if (!os) throw std::runtime_error("cannot open output file: " + json_out);
    obs::write_report_json(os, report, top);
    std::cout << "postmortem written to " << json_out << "\n";
  }
  return 0;
}

/// True when `path` asks for Prometheus text exposition (else JSON).
bool wants_prometheus(const std::string& path) {
  const auto dot = path.rfind('.');
  if (dot == std::string::npos) return false;
  const std::string ext = path.substr(dot);
  return ext == ".prom" || ext == ".txt";
}

/// Parse the global --metrics-out/--trace-out/--audit-out/--record flags and
/// switch the matching obs facets on *before* the command runs.  Returns a
/// closure that writes the requested files once the command has finished.
std::function<void()> setup_observability(const Args& args) {
  const std::string metrics_out = args.get("metrics-out", "");
  const std::string trace_out = args.get("trace-out", "");
  const std::string audit_out = args.get("audit-out", "");
  const std::string record_out = args.get("record", "");
  if (!metrics_out.empty()) obs::set_metrics_enabled(true);
  if (!trace_out.empty()) obs::set_trace_enabled(true);
  if (!audit_out.empty()) obs::set_audit_enabled(true);
  if (args.get_bool("watchdog", false)) {
    obs::set_watchdog_enabled(true);
    obs::watchdog().begin_run();
  }
  if (!record_out.empty()) {
    const std::string mode = args.get("record-mode", "full");
    if (mode == "ring") {
      const std::size_t cap =
          args.get_count("record-ring", obs::kDefaultRingCapacity,
                         obs::kMaxRingCapacity);
      obs::recorder().configure(obs::RecorderMode::kRing, cap);
    } else if (mode == "full") {
      obs::recorder().configure(obs::RecorderMode::kFull);
    } else {
      throw std::runtime_error("--record-mode must be full or ring");
    }
    obs::set_recorder_enabled(true);
  }
  return [metrics_out, trace_out, audit_out, record_out] {
    auto open = [](const std::string& path) {
      std::ofstream os(path);
      if (!os) throw std::runtime_error("cannot open output file: " + path);
      return os;
    };
    if (!metrics_out.empty()) {
      std::ofstream os = open(metrics_out);
      if (wants_prometheus(metrics_out)) {
        obs::metrics().write_prometheus(os);
      } else {
        obs::metrics().write_json(os);
      }
      std::cout << "metrics written to " << metrics_out << "\n";
    }
    if (!trace_out.empty()) {
      std::ofstream os = open(trace_out);
      obs::tracer().write_chrome_json(os);
      std::cout << "trace written to " << trace_out << "\n";
    }
    if (!audit_out.empty()) {
      std::ofstream os = open(audit_out);
      obs::audit_log().write_json(os);
      std::cout << "audit log written to " << audit_out << "\n";
    }
    if (!record_out.empty()) {
      if (!obs::recorder().write_file(record_out)) {
        throw std::runtime_error("cannot write journal file: " + record_out);
      }
      std::cout << "journal written to " << record_out << " ("
                << obs::recorder().size() << " records, "
                << obs::recorder().dropped() << " dropped)\n";
    }
  };
}

int run_command(const std::string& cmd, const Args& args) {
  if (cmd == "generate") return cmd_generate(args);
  if (cmd == "solve") return cmd_solve(args);
  if (cmd == "validate") return cmd_validate(args);
  if (cmd == "simulate") return cmd_simulate(args);
  if (cmd == "analyze") return cmd_analyze(args);
  if (cmd == "online") return cmd_online(args);
  if (cmd == "stream") return cmd_stream(args);
  if (cmd == "genfaults") return cmd_genfaults(args);
  if (cmd == "repair") return cmd_repair(args);
  if (cmd == "diff") return cmd_diff(args);
  if (cmd == "postmortem") return cmd_postmortem(args);
  if (cmd == "scenarios") return cmd_scenarios();
  if (cmd == "help" || cmd == "--help") {
    usage();
    return 0;
  }
  std::cerr << "unknown command: " << cmd << "\n";
  return usage();
}

int dispatch(int argc, char** argv) {
  set_log_level_from_env();
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args(argc - 1, argv + 1);
  const std::function<void()> flush_obs = setup_observability(args);
  const int rc = run_command(cmd, args);
  flush_obs();  // skipped when the command throws: no partial files
  return rc;
}

}  // namespace
}  // namespace edgerep

int main(int argc, char** argv) {
  try {
    return edgerep::dispatch(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
