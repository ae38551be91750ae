// End-to-end benchmark driver for the edgerep library.
//
//   edgerep_e2e --workload admission|online_obs|online_flow --seed N
//               --seconds S --trace 0|1 [--spans-out FILE]
//   edgerep_e2e --self-test
//
// Every input is generated from --seed by the library's own generators
// (stream_instance, generate_arrival_stream, generate_fault_trace).  The
// simulated arrival process is an open loop on the simulated clock that the
// program replays as fast as it can, so there is no wall-clock schedule.
//
// --trace 0 is the measured run: set up the inputs several times (median is
// setup_s), then repeat the workload's timed stages for --seconds; the
// throughput comes from the lower quartile of the rep times.  --trace 1 is
// the traced run: one plain pass, one pass with a span
// around every call into a library layer, then the traced-only experiments
// (table/facet-off twins, the stream shard sweep, finalize on a copy).  Both
// run every output check and regime guard; each is counted as an attempted
// operation and each miss as a failed one.  The last line on stdout is one
// JSON object with the metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "edgerep/edgerep.h"
#include "spans.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace edgerep;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 7;

// --- checks and metrics -----------------------------------------------------

/// Output checks and regime guards.  Every expectation is one attempted
/// operation; a miss is a failed one and is reported on stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "CHECK FAILED: " << what << "\n";
    }
  }
  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Lower quartile (nearest rank).  Rep times on a shared machine carry
/// one-sided noise that drifts over seconds; the lower quartile tracks the
/// undisturbed speed without hanging on one lucky rep as the minimum does.
double lower_quartile(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 4];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

// --- workloads --------------------------------------------------------------

enum class Kind { kAdmission, kOnlineObs, kOnlineFlow };

/// Everything that defines one workload at one scale.
struct Spec {
  Kind kind = Kind::kAdmission;
  std::string name;
  StreamWorkloadConfig gen;
  /// admission: total resource demand ÷ total available capacity.
  double demand_over_capacity = 0.0;
  /// online_obs: mean offered compute load ÷ total available capacity
  /// (0 keeps the generated capacities).
  double offered_utilization = 0.0;
  double arrival_rate = 1.0;  ///< queries per simulated second
  double wave_amplitude = 0.0;
  double wave_cycles = 0.0;   ///< diurnal cycles over the arrival horizon
  std::size_t site_crashes = 0;
  std::size_t capacity_losses = 0;
  OnlineNetwork network = OnlineNetwork::kTable;
  double oversubscription = 0.0;
  bool obs_facets = false;    ///< recorder (full mode) + watchdog
  std::size_t shards = 8;
  std::size_t setup_reps = 9;
  // Regime guards.
  double min_reject_share = 0.0;
  double target_peak_util = 0.0;
  double peak_util_tolerance = 0.0;
  double max_rate_changes_per_flow = 0.0;
};

Spec make_spec(const std::string& workload, bool tiny) {
  Spec s;
  s.name = workload;
  s.gen.max_demands = 3;
  if (workload == "admission") {
    // Capacity and K bind: 1.5x more demand than capacity, Zipf(1)
    // popularity, K = 32 of 1000 sites, and deadlines that leave each
    // demand tens of feasible sites (narrow selectivity and fast processing
    // make the transfer term decide feasibility).  256 datasets with
    // similar volumes keep the admitted share steady from seed to seed.
    s.kind = Kind::kAdmission;
    s.gen.sites = tiny ? 200 : 1000;
    s.gen.queries = tiny ? 5'000 : 50'000;
    s.gen.datasets = 256;
    s.gen.zipf_exponent = 1.0;
    s.gen.max_replicas = tiny ? 12 : 32;
    s.gen.deadline_per_gb = {0.03, 0.06};
    s.gen.selectivity = {0.4, 0.8};
    s.gen.proc_delay = {0.005, 0.02};
    s.gen.volume = {3.0, 4.0};
    s.demand_over_capacity = 1.5;
    s.arrival_rate = 20'000.0;
    s.site_crashes = tiny ? 2 : 8;
    s.capacity_losses = tiny ? 2 : 8;
    s.shards = 8;
    s.min_reject_share = 0.10;
  } else if (workload == "online_obs") {
    // Kernel plus recorder and watchdog feeds: drifting Zipf popularity, a
    // diurnal wave, K = 1/8 of the sites, and capacity for a peak
    // utilisation near 0.85 (the replica-holding sites fill first).
    s.kind = Kind::kOnlineObs;
    s.gen.sites = tiny ? 128 : 512;
    s.gen.queries = tiny ? 20'000 : 50'000;
    s.gen.volume = {3.0, 4.0};
    s.gen.zipf_exponent = 1.0;
    s.gen.zipf_drift_period = tiny ? 2'000 : 5'000;
    s.gen.max_replicas = tiny ? 16 : 64;
    s.offered_utilization = 0.9;
    s.arrival_rate = 5'000.0;
    s.wave_amplitude = 0.5;
    s.wave_cycles = 3.0;
    s.site_crashes = tiny ? 2 : 4;
    s.capacity_losses = tiny ? 2 : 4;
    s.obs_facets = true;
    s.min_reject_share = 0.01;
    s.target_peak_util = 0.85;
    s.peak_util_tolerance = 0.12;
  } else if (workload == "online_flow") {
    // Flow backend at oversubscription 2.5: links contend (deadline
    // breaches on every seed) but the flow population stays bounded.
    // Average degree 16 spreads the load over many links: at degree 8 a few
    // hot links decide the run, so contention and run time swing from seed
    // to seed and some seeds run away at 2.5.  Every obs facet is off.
    s.kind = Kind::kOnlineFlow;
    s.gen.sites = tiny ? 64 : 256;
    s.gen.avg_degree = 16.0;
    s.gen.queries = tiny ? 10'000 : 50'000;
    s.arrival_rate = 1.0;
    s.site_crashes = tiny ? 2 : 4;
    s.capacity_losses = tiny ? 2 : 4;
    s.network = OnlineNetwork::kFlow;
    s.oversubscription = 2.5;
    s.min_reject_share = 0.0;
    s.max_rate_changes_per_flow = 20.0;
  } else {
    throw std::invalid_argument("unknown workload: " + workload +
                                " (admission, online_obs, online_flow)");
  }
  if (tiny) s.setup_reps = 1;
  return s;
}

double arrival_horizon(const Spec& spec) {
  return static_cast<double>(spec.gen.queries) / spec.arrival_rate;
}

FaultScenarioConfig fault_config(const Spec& spec) {
  FaultScenarioConfig fc;
  fc.site_crashes = spec.site_crashes;
  fc.capacity_losses = spec.capacity_losses;
  fc.cloudlets_only = false;
  if (spec.kind == Kind::kAdmission) {
    fc.horizon = 1.0;
    fc.mean_repair_time = 0.0;  // the batch plan is repaired once, at the end
  } else {
    fc.horizon = 0.8 * arrival_horizon(spec);
    fc.mean_repair_time = fc.horizon / 8.0;
  }
  return fc;
}

/// Generated inputs of one workload.
struct Inputs {
  Instance inst;
  std::vector<Arrival> arrivals;  ///< admission only (online draws its own)
  FaultTrace faults;
  double demand_ghz = 0.0;    ///< Σ resource demand of every (query, demand)
  double capacity_ghz = 0.0;  ///< Σ available capacity after scaling
};

/// Shrink every site's available capacity by one factor so the load stands
/// in the ratio the workload's regime asks for.
void scale_capacity(const Spec& spec, Inputs& in) {
  double capacity = 0.0;
  for (const Site& s : in.inst.sites()) capacity += s.capacity;
  double proc = 0.0;
  for (const Site& s : in.inst.sites()) proc += s.proc_delay;
  proc /= static_cast<double>(in.inst.sites().size());
  double demand = 0.0;
  double held = 0.0;  // GHz x seconds held, at the mean processing delay
  for (const Query& q : in.inst.queries()) {
    for (const DatasetDemand& dd : q.demands) {
      const double need = resource_demand(in.inst, q, dd);
      demand += need;
      held += need * in.inst.dataset(dd.dataset).volume * proc;
    }
  }
  in.demand_ghz = demand;
  double target = capacity;
  if (spec.demand_over_capacity > 0.0) {
    target = demand / spec.demand_over_capacity;
  } else if (spec.offered_utilization > 0.0) {
    target = held / arrival_horizon(spec) / spec.offered_utilization;
  }
  const double factor = target / capacity;
  if (!(factor > 0.0 && factor <= 1.0)) {
    throw std::runtime_error("capacity scale factor out of (0, 1]");
  }
  in.capacity_ghz = 0.0;
  for (const Site& s : in.inst.sites()) {
    in.inst.set_available(s.id, s.capacity * factor);
    in.capacity_ghz += s.capacity * factor;
  }
}

Inputs build_inputs(const Spec& spec, std::uint64_t seed, SpanLog& log) {
  Inputs in;
  {
    SpanLog::Scope s(log, "workload.stream_instance");
    in.inst = stream_instance(spec.gen, derive_seed(seed, 1));
  }
  {
    SpanLog::Scope s(log, "cloud.scale_capacity");
    scale_capacity(spec, in);
  }
  if (spec.kind == Kind::kAdmission) {
    SpanLog::Scope s(log, "workload.arrival_stream");
    in.arrivals = generate_arrival_stream(in.inst, spec.arrival_rate,
                                          derive_seed(seed, 2));
  }
  {
    SpanLog::Scope s(log, "workload.fault_trace");
    in.faults =
        generate_fault_trace(in.inst, fault_config(spec), derive_seed(seed, 3));
  }
  return in;
}

// --- admission: appro_g -> fault repair -> run_stream -----------------------

struct AdmissionPass {
  std::optional<ApproResult> appro;
  std::optional<FaultState> faults;
  std::optional<ReplicaPlan> repaired;
  RepairStats repair;
  std::size_t candidates = 0;
  std::optional<StreamResult> stream;
  double appro_s = 0.0;
  double faults_s = 0.0;
  double index_s = 0.0;
  double repair_s = 0.0;
  double stream_s = 0.0;

  [[nodiscard]] double plan_s() const {
    return appro_s + faults_s + index_s + repair_s;
  }
};

StreamOptions stream_options(std::size_t shards) {
  StreamOptions opts;
  opts.shards = shards;
  return opts;
}

AdmissionPass run_admission(const Spec& spec, const Inputs& in, SpanLog& log) {
  AdmissionPass p;
  {
    SpanLog::Scope s(log, "core.appro_g");
    p.appro.emplace(appro_g(in.inst));
    p.appro_s = s.stop();
  }
  {
    SpanLog::Scope s(log, "sim.fault_state");
    p.faults.emplace(in.inst);
    p.faults->apply_until(in.faults, std::numeric_limits<double>::infinity());
    p.faults_s = s.stop();
  }
  std::optional<RepairEngine> engine;
  {
    SpanLog::Scope s(log, "core.repair_index");
    engine.emplace(in.inst);
    p.index_s = s.stop();
  }
  p.candidates = engine->index().size();
  DualState duals = p.appro->duals;
  {
    SpanLog::Scope s(log, "bench.copy_plan");
    p.repaired.emplace(p.appro->plan);
  }
  {
    SpanLog::Scope s(log, "core.repair");
    p.repair = engine->repair(*p.repaired, duals, *p.faults);
    p.repair_s = s.stop();
  }
  {
    SpanLog::Scope s(log, "stream.run_stream");
    p.stream.emplace(
        run_stream(in.inst, in.arrivals, stream_options(spec.shards)));
    p.stream_s = s.stop();
  }
  return p;
}

/// Volume and count of a static plan's admitted queries that meet their
/// deadline, recomputed from the assignments (constraint (4)).
struct OnTime {
  std::size_t admitted = 0;
  std::size_t hits = 0;
  double hit_volume = 0.0;
};

OnTime plan_on_time(const Instance& inst, const ReplicaPlan& plan) {
  OnTime t;
  for (const Query& q : inst.queries()) {
    if (!plan.admitted(q.id)) continue;
    ++t.admitted;
    double response = 0.0;
    for (const DatasetDemand& dd : q.demands) {
      const SiteId site = *plan.assignment(q.id, dd.dataset);
      response = std::max(response, evaluation_delay(inst, q, dd, site));
    }
    if (response <= q.deadline) {
      ++t.hits;
      t.hit_volume += inst.demanded_volume(q.id);
    }
  }
  return t;
}

std::size_t datasets_at_budget(const Instance& inst, const ReplicaPlan& plan) {
  std::size_t n = 0;
  for (const Dataset& d : inst.datasets()) {
    n += plan.replica_count(d.id) >= inst.max_replicas() ? 1 : 0;
  }
  return n;
}

/// Output checks and regime guards of one admission pass.
void check_admission(const Spec& spec, const Inputs& in, const AdmissionPass& p,
                     SpanLog& log, Checks& checks) {
  const double queries = static_cast<double>(in.inst.queries().size());
  {
    SpanLog::Scope s(log, "cloud.validate");
    checks.expect(validate(p.appro->plan).ok, "validate(appro_g plan)");
    checks.expect(validate(p.stream->plan).ok, "validate(stream plan)");
  }
  {
    SpanLog::Scope s(log, "core.validate_under_faults");
    checks.expect(validate_under_faults(*p.repaired, *p.faults).ok,
                  "validate_under_faults(repaired plan)");
  }
  const StreamResult& st = *p.stream;
  checks.expect(st.queries_admitted + st.queries_rejected ==
                    in.inst.queries().size(),
                "stream accounts for every query");
  const double appro_reject =
      1.0 - static_cast<double>(p.appro->metrics.admitted_queries) / queries;
  const double stream_reject =
      static_cast<double>(st.queries_rejected) / queries;
  checks.expect(appro_reject >= spec.min_reject_share,
                "regime: appro_g rejects a clear share of queries");
  checks.expect(stream_reject >= spec.min_reject_share,
                "regime: run_stream rejects a clear share of queries");
  checks.expect(datasets_at_budget(in.inst, p.appro->plan) >= 1,
                "regime: at least one dataset exhausts K");
  checks.expect(st.conflicts > 0, "regime: reconcile conflicts happen");
}

// --- online: run_online on the typed kernel ---------------------------------

OnlineConfig online_config(const Spec& spec, const Inputs& in,
                           std::uint64_t seed) {
  OnlineConfig cfg;
  cfg.arrival_rate = spec.arrival_rate;
  cfg.seed = derive_seed(seed, 4);
  cfg.wave_amplitude = spec.wave_amplitude;
  cfg.wave_period = spec.wave_cycles > 0.0
                        ? arrival_horizon(spec) / spec.wave_cycles
                        : 0.0;
  cfg.faults = in.faults;
  cfg.repair_on_failure = true;
  cfg.network = spec.network;
  cfg.oversubscription = spec.oversubscription;
  return cfg;
}

void set_obs_facets(bool on) {
  obs::set_all_enabled(false);
  obs::set_recorder_enabled(on);
  obs::set_watchdog_enabled(on);
}

struct OnlinePass {
  OnlineResult res;
  double online_s = 0.0;
};

OnlinePass run_online_stage(const Spec& spec, const Inputs& in,
                            std::uint64_t seed, SpanLog& log) {
  const OnlineConfig cfg = online_config(spec, in, seed);
  set_obs_facets(spec.obs_facets);
  if (spec.obs_facets) obs::recorder().clear();
  OnlinePass p;
  SpanLog::Scope s(log, "sim.run_online");
  p.res = run_online(in.inst, cfg);
  p.online_s = s.stop();
  return p;
}

/// On-time accounting recomputed from the per-query outcomes, mirroring the
/// kernel's SLO rollup (a hit is slack >= -1e-9).
OnTime online_on_time(const Instance& inst, const OnlineResult& res) {
  OnTime t;
  for (const OnlineOutcome& o : res.outcomes) {
    if (!o.admitted) continue;
    ++t.admitted;
    const double slack =
        inst.query(o.query).deadline - (o.completion_time - o.arrival_time);
    if (slack >= -1e-9) {
      ++t.hits;
      t.hit_volume += inst.demanded_volume(o.query);
    }
  }
  return t;
}

struct JournalFacts {
  std::size_t records = 0;
  double postmortem_s = 0.0;
};

void check_online(const Spec& spec, const Inputs& in, const OnlinePass& p,
                  SpanLog& log, Checks& checks, JournalFacts* journal) {
  const OnlineResult& r = p.res;
  const OnTime t = online_on_time(in.inst, r);
  checks.expect(r.outcomes.size() == in.inst.queries().size(),
                "one outcome per query");
  checks.expect(t.admitted == r.slo.admitted_queries &&
                    t.hits == r.slo.deadline_hits,
                "outcomes reproduce slo admitted and hit counts");
  checks.expect(std::bit_cast<std::uint64_t>(ratio(
                    static_cast<double>(t.hits),
                    static_cast<double>(t.admitted))) ==
                    std::bit_cast<std::uint64_t>(r.slo.hit_ratio),
                "outcomes reproduce slo.hit_ratio");
  if (spec.obs_facets) {
    obs::Journal j;
    {
      SpanLog::Scope s(log, "obs.journal_snapshot");
      j.records = obs::recorder().snapshot();
    }
    obs::PostmortemReport report;
    {
      SpanLog::Scope s(log, "obs.analyze_journal");
      report = obs::analyze_journal(j);
      journal->postmortem_s = s.stop();
    }
    journal->records = j.records.size();
    checks.expect(std::bit_cast<std::uint64_t>(report.slo.hit_ratio) ==
                      std::bit_cast<std::uint64_t>(r.slo.hit_ratio),
                  "analyze_journal reproduces slo.hit_ratio bit-exactly");
    checks.expect(report.slo.deadline_hits == r.slo.deadline_hits,
                  "analyze_journal reproduces slo.deadline_hits");
    checks.expect(r.watchdog.opened >= 1,
                  "regime: the watchdog opens at least one alert");
  }
  const double queries = static_cast<double>(in.inst.queries().size());
  const double settled =
      static_cast<double>(r.admitted_queries + r.queries_failed_by_fault);
  const double reject = 1.0 - settled / queries;
  checks.expect(reject >= spec.min_reject_share,
                "regime: online admission rejects queries");
  if (spec.target_peak_util > 0.0) {
    checks.expect(std::abs(r.peak_utilization - spec.target_peak_util) <=
                      spec.peak_util_tolerance,
                  "regime: peak utilisation near its target");
  }
  if (spec.network == OnlineNetwork::kFlow) {
    const FlowGapStats& g = r.flow_gap;
    checks.expect(g.gap_breaches > 0, "regime: flow gap breaches happen");
    checks.expect(ratio(static_cast<double>(g.rate_changes),
                        static_cast<double>(g.flows_routed)) <=
                      spec.max_rate_changes_per_flow,
                  "regime: rate changes per flow stay bounded");
  }
}

// --- output -----------------------------------------------------------------

struct RunResult {
  std::vector<Metric> metrics;
  Checks checks;
};

std::string format_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void print_result(const RunResult& r) {
  for (const Metric& m : r.metrics) {
    std::cout << "metric " << m.name << " = " << format_number(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (r.checks.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << r.checks.attempted()
            << ", \"failed\": " << r.checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << format_number(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

std::string hex_bits(double v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0')
     << std::bit_cast<std::uint64_t>(v);
  return os.str();
}

// --- measured run (--trace 0) -----------------------------------------------

/// Quality figures of one pass; identical on every rep of one seed.
struct Quality {
  double admitted_volume_frac = 0.0;
  double ontime_volume_frac = 0.0;
  double deadline_hit_frac = 0.0;
  std::uint64_t fingerprint = 0;  ///< online_result_hash or plan volume bits

  bool operator==(const Quality&) const = default;
};

Quality admission_quality(const Inputs& in, const AdmissionPass& p) {
  const double total = in.inst.total_demanded_volume();
  const OnTime t = plan_on_time(in.inst, p.stream->plan);
  Quality q;
  q.admitted_volume_frac = p.appro->metrics.admitted_volume / total;
  q.ontime_volume_frac = t.hit_volume / total;
  q.deadline_hit_frac =
      ratio(static_cast<double>(t.hits), static_cast<double>(t.admitted));
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  q.fingerprint = bits(p.stream->metrics.admitted_volume) ^
                  std::rotl(bits(evaluate(*p.repaired).admitted_volume), 1) ^
                  std::rotl(bits(p.appro->metrics.admitted_volume), 2);
  return q;
}

Quality online_quality(const Inputs& in, const OnlinePass& p) {
  const double total = in.inst.total_demanded_volume();
  const OnTime t = online_on_time(in.inst, p.res);
  Quality q;
  q.admitted_volume_frac = p.res.admitted_volume / total;
  q.ontime_volume_frac = t.hit_volume / total;
  q.deadline_hit_frac = p.res.slo.hit_ratio;
  q.fingerprint = online_result_hash(p.res);
  return q;
}

void print_admission_facts(const Inputs& in, const AdmissionPass& p) {
  const PlanMetrics& m = p.appro->metrics;
  const PlanMetrics rm = evaluate(*p.repaired);
  const StreamResult& st = *p.stream;
  std::size_t saturated = 0;
  for (const Site& site : in.inst.sites()) {
    saturated +=
        p.appro->plan.residual(site.id) < 0.05 * site.available ? 1 : 0;
  }
  std::cout << "info demand_over_capacity " << in.demand_ghz / in.capacity_ghz
            << " appro_utilization " << m.utilization << " saturated_sites "
            << saturated << " datasets_at_K "
            << datasets_at_budget(in.inst, p.appro->plan)
            << "\ninfo appro_g admitted " << m.admitted_queries << "/"
            << m.total_queries << " volume " << format_number(m.admitted_volume)
            << " (bits " << hex_bits(m.admitted_volume) << ") replicas "
            << m.replicas_placed << "\ninfo repaired admitted "
            << rm.admitted_queries << " volume "
            << format_number(rm.admitted_volume) << " (bits "
            << hex_bits(rm.admitted_volume) << ")\ninfo stream admitted "
            << st.queries_admitted << " rejected " << st.queries_rejected
            << " conflicts " << st.conflicts << " volume "
            << format_number(st.metrics.admitted_volume) << " (bits "
            << hex_bits(st.metrics.admitted_volume) << ")\n";
}

void print_online_facts(const OnlinePass& p) {
  const OnlineResult& r = p.res;
  std::cout << "info online admitted " << r.admitted_queries << "/"
            << r.outcomes.size() << " failed_by_fault "
            << r.queries_failed_by_fault << " peak_utilization "
            << format_number(r.peak_utilization) << " hit_ratio "
            << format_number(r.slo.hit_ratio) << " alerts "
            << r.watchdog.opened << " gap_breaches " << r.flow_gap.gap_breaches
            << " rate_changes " << r.flow_gap.rate_changes << " flows "
            << r.flow_gap.flows_routed << "\ninfo online_result_hash "
            << std::hex << std::setw(16) << std::setfill('0')
            << online_result_hash(r) << std::dec << std::setfill(' ') << "\n";
}

RunResult measured_run(const Spec& spec, std::uint64_t seed, double seconds) {
  RunResult out;
  SpanLog off(false);
  const double queries = static_cast<double>(spec.gen.queries);

  std::vector<double> setup_s;
  std::optional<Inputs> in;
  for (std::size_t i = 0; i < spec.setup_reps; ++i) {
    in.reset();  // never hold two instances at once
    SpanLog::Scope s(off, "bench.setup");
    in.emplace(build_inputs(spec, seed, off));
    setup_s.push_back(s.stop());
  }

  std::vector<double> run_s;
  std::optional<Quality> first;
  double measured = 0.0;
  constexpr std::size_t kMinReps = 3;
  while (run_s.size() < kMinReps || measured < seconds) {
    Quality q;
    double stage_s = 0.0;
    if (spec.kind == Kind::kAdmission) {
      const AdmissionPass p = run_admission(spec, *in, off);
      stage_s = p.plan_s() + p.stream_s;
      q = admission_quality(*in, p);
      if (!first) {
        check_admission(spec, *in, p, off, out.checks);
        print_admission_facts(*in, p);
      }
    } else {
      const OnlinePass p = run_online_stage(spec, *in, seed, off);
      stage_s = p.online_s;
      q = online_quality(*in, p);
      if (!first) {
        JournalFacts jf;
        check_online(spec, *in, p, off, out.checks, &jf);
        print_online_facts(p);
      }
    }
    if (first) {
      out.checks.expect(q == *first, "rep reproduces the first rep exactly");
    } else {
      first = q;
    }
    run_s.push_back(stage_s);
    measured += stage_s;
  }
  set_obs_facets(false);
  std::cout << "info setup_s";
  for (const double t : setup_s) std::cout << " " << t;
  std::cout << "\ninfo run_s";
  for (const double t : run_s) std::cout << " " << t;
  std::cout << "\n";

  out.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"queries_per_s", queries / lower_quartile(run_s), "1/s"},
      {"admitted_volume_frac", first->admitted_volume_frac, "ratio"},
      {"ontime_volume_frac", first->ontime_volume_frac, "ratio"},
      {"deadline_hit_frac", first->deadline_hit_frac, "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  return out;
}

// --- traced run (--trace 1) -------------------------------------------------

/// One pass of the workload: set-up, timed stages, checks.  The results are
/// kept for the per-layer metrics.
struct Pass {
  std::unique_ptr<Inputs> in;  ///< heap-held: the plans point into it
  std::optional<AdmissionPass> admission;
  std::optional<OnlinePass> online;
  JournalFacts journal;
};

Pass run_pass(const Spec& spec, std::uint64_t seed, SpanLog& log,
              Checks& checks) {
  Pass p;
  p.in = std::make_unique<Inputs>(build_inputs(spec, seed, log));
  if (spec.kind == Kind::kAdmission) {
    p.admission.emplace(run_admission(spec, *p.in, log));
    SpanLog::Scope s(log, "bench.checks");
    check_admission(spec, *p.in, *p.admission, log, checks);
  } else {
    p.online.emplace(run_online_stage(spec, *p.in, seed, log));
    SpanLog::Scope s(log, "bench.checks");
    check_online(spec, *p.in, *p.online, log, checks, &p.journal);
  }
  set_obs_facets(false);
  return p;
}

RunResult traced_run(const Spec& spec, std::uint64_t seed,
                     const std::string& spans_out) {
  RunResult out;
  std::vector<Metric>& m = out.metrics;
  auto add = [&m](const std::string& name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };

  // Plain pass: the same pipeline with every span off, for the overhead.
  double plain_s = 0.0;
  {
    SpanLog off(false);
    SpanLog::Scope s(off, "bench.plain");
    run_pass(spec, seed, off, out.checks);
    plain_s = s.stop();
  }

  SpanLog log(true);
  SpanLog::Scope traced(log, "bench.traced");
  double pass_s = 0.0;
  std::optional<Pass> pass;
  {
    SpanLog::Scope s(log, "bench.pass");
    pass.emplace(run_pass(spec, seed, log, out.checks));
    pass_s = s.stop();
  }
  const Inputs& in = *pass->in;

  // cloud: Instance::finalize on a copy (switching the delay backend back
  // and forth un-finalizes it).
  double finalize_s = 0.0;
  {
    std::optional<Instance> copy;
    {
      SpanLog::Scope s(log, "bench.copy_instance");
      copy.emplace(in.inst);
      copy->set_delay_backend(DelayBackend::kDense);
      copy->set_delay_backend(DelayBackend::kSiteRows);
    }
    SpanLog::Scope s(log, "cloud.finalize");
    copy->finalize();
    finalize_s = s.stop();
  }
  const DelayTable& table = in.inst.site_delays();

  // Traced-only experiments.
  struct Sweep {
    std::size_t shards;
    double volume_frac;
    std::size_t conflicts;
  };
  std::vector<Sweep> sweep;
  double twin_s = 0.0;
  if (spec.kind == Kind::kAdmission) {
    for (const std::size_t shards : {1u, 4u, 16u}) {
      const std::string name = "stream.run_stream.s" + std::to_string(shards);
      std::optional<StreamResult> r;
      {
        SpanLog::Scope s(log, name.c_str());
        r.emplace(run_stream(in.inst, in.arrivals, stream_options(shards)));
      }
      {
        SpanLog::Scope s(log, "cloud.validate");
        out.checks.expect(validate(r->plan).ok,
                          "validate(stream plan at " + std::to_string(shards) +
                              " shards)");
      }
      sweep.push_back({shards,
                       r->metrics.admitted_volume /
                           in.inst.total_demanded_volume(),
                       r->conflicts});
    }
  } else {
    // Twin on the same inputs: the table backend for the flow workload, every
    // obs facet off for the obs workload.
    Spec twin = spec;
    twin.network = OnlineNetwork::kTable;
    twin.obs_facets = false;
    SpanLog::Scope s(log, "sim.run_online.twin");
    const OnlinePass tp = run_online_stage(twin, in, seed, log);
    twin_s = tp.online_s;
    set_obs_facets(false);
  }
  const double traced_s = traced.stop();

  // Per-layer self time over the whole traced run.
  const std::map<std::string, double> self = log.self_seconds_by_layer();
  auto layer = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double covered = 0.0;
  for (const auto& [name, s] : self) {
    if (name != "bench") covered += s;
  }

  const double queries = static_cast<double>(in.inst.queries().size());
  add("workload.instance_s", log.total_seconds("workload.stream_instance"),
      "s");
  add("workload.arrivals_s", log.total_seconds("workload.arrival_stream"),
      "s");
  add("workload.faults_s", log.total_seconds("workload.fault_trace"), "s");
  add("cloud.finalize_s", finalize_s, "s");
  add("cloud.delay_entries",
      static_cast<double>(table.rows()) * static_cast<double>(table.cols()),
      "count");

  // core + stream (admission; zero elsewhere).
  {
    const AdmissionPass* a = pass->admission ? &*pass->admission : nullptr;
    const double demands = [&in] {
      double n = 0.0;
      for (const Query& q : in.inst.queries()) {
        n += static_cast<double>(q.demands.size());
      }
      return n;
    }();
    add("core.plan_s", a ? a->plan_s() : 0.0, "s");
    add("core.appro_g_s", a ? a->appro_s : 0.0, "s");
    add("core.index_s", a ? a->index_s : 0.0, "s");
    add("core.candidates_per_demand",
        a ? static_cast<double>(a->candidates) / demands : 0.0, "count");
    add("core.repair_s", a ? a->repair_s : 0.0, "s");
    add("core.demands_rejected",
        a ? static_cast<double>(a->appro->demands_rejected) : 0.0, "count");
    add("core.replicas_placed",
        a ? static_cast<double>(a->appro->metrics.replicas_placed) : 0.0,
        "count");
    add("core.repair_evicted",
        a ? static_cast<double>(a->repair.queries_evicted) : 0.0, "count");
    add("core.repair_readmitted",
        a ? static_cast<double>(a->repair.queries_readmitted) : 0.0, "count");
    add("core.repair_retained_frac",
        a ? ratio(evaluate(*a->repaired).admitted_volume,
                  a->appro->metrics.admitted_volume)
          : 0.0,
        "ratio");
    const StreamResult* st = a ? &*a->stream : nullptr;
    double skew = 0.0;
    if (st != nullptr && !st->shard_stats.empty()) {
      double max_routed = 0.0;
      double sum_routed = 0.0;
      for (const ShardStats& ss : st->shard_stats) {
        max_routed = std::max(max_routed, static_cast<double>(ss.routed));
        sum_routed += static_cast<double>(ss.routed);
      }
      skew = ratio(max_routed,
                   sum_routed / static_cast<double>(st->shard_stats.size()));
    }
    auto count = [st](std::size_t StreamResult::*field) {
      return st ? static_cast<double>(st->*field) : 0.0;
    };
    add("stream.run_s", a ? a->stream_s : 0.0, "s");
    add("stream.epochs", count(&StreamResult::epochs), "count");
    add("stream.admitted", count(&StreamResult::queries_admitted), "count");
    add("stream.rejected", count(&StreamResult::queries_rejected), "count");
    add("stream.conflicts", count(&StreamResult::conflicts), "count");
    add("stream.requeues", count(&StreamResult::requeues), "count");
    add("stream.commit_ratio",
        st ? ratio(count(&StreamResult::queries_admitted),
                   count(&StreamResult::queries_admitted) +
                       count(&StreamResult::conflicts))
           : 0.0,
        "ratio");
    add("stream.ledger_releases", count(&StreamResult::ledger_releases),
        "count");
    add("stream.shard_skew", skew, "ratio");
    for (const std::size_t shards : {1u, 4u, 16u}) {
      double frac = 0.0;
      double conflicts = 0.0;
      for (const Sweep& sw : sweep) {
        if (sw.shards == shards) {
          frac = sw.volume_frac;
          conflicts = static_cast<double>(sw.conflicts);
        }
      }
      add("stream.volume_frac.s" + std::to_string(shards), frac, "ratio");
      add("stream.conflicts.s" + std::to_string(shards), conflicts, "count");
    }
  }

  // sim (online; zero on admission).
  {
    const OnlinePass* o = pass->online ? &*pass->online : nullptr;
    const OnlineResult* r = o ? &o->res : nullptr;
    const double online_s = o ? o->online_s : 0.0;
    const bool flow = spec.network == OnlineNetwork::kFlow;
    const bool facets = spec.obs_facets;
    auto num = [](std::size_t v) { return static_cast<double>(v); };
    add("sim.online_s", online_s, "s");
    add("sim.events", r ? num(r->kernel_stats.events_processed) : 0.0,
        "count");
    add("sim.events_per_s",
        r ? ratio(num(r->kernel_stats.events_processed), online_s) : 0.0,
        "1/s");
    add("sim.peak_pending_events",
        r ? num(r->kernel_stats.peak_pending_events) : 0.0, "count");
    add("sim.peak_flights", r ? num(r->kernel_stats.peak_flights) : 0.0,
        "count");
    add("sim.peak_utilization", r ? r->peak_utilization : 0.0, "ratio");
    add("sim.rejected",
        r ? queries - num(r->admitted_queries + r->queries_failed_by_fault)
          : 0.0,
        "count");
    add("sim.failed_by_fault", r ? num(r->queries_failed_by_fault) : 0.0,
        "count");
    add("sim.relocated", r ? num(r->demands_relocated) : 0.0, "count");
    add("sim.replicas_lost", r ? num(r->replicas_lost_to_faults) : 0.0,
        "count");
    add("sim.p99_slack_s", r ? r->slo.p99_slack : 0.0, "s");
    add("sim.late_frac", r ? 1.0 - r->slo.hit_ratio : 0.0, "ratio");
    const FlowGapStats g = r ? r->flow_gap : FlowGapStats{};
    add("sim.flows_routed", num(g.flows_routed), "count");
    add("sim.rate_changes", num(g.rate_changes), "count");
    add("sim.rate_changes_per_flow",
        ratio(num(g.rate_changes), num(g.flows_routed)), "count");
    add("sim.gap_breaches", num(g.gap_breaches), "count");
    add("sim.mean_stretch_s", g.mean_stretch, "s");
    const double flow_overhead = flow ? online_s - twin_s : 0.0;
    add("sim.flow_overhead_s", flow_overhead, "s");
    add("sim.flow_share", ratio(flow_overhead, pass_s), "ratio");

    const double facet_overhead = facets ? online_s - twin_s : 0.0;
    const double journal_bytes =
        num(pass->journal.records) * sizeof(obs::JournalRecord);
    add("obs.records", num(pass->journal.records), "count");
    add("obs.journal_mb", journal_bytes / (1024.0 * 1024.0), "MB");
    add("obs.alerts_opened", r ? num(r->watchdog.opened) : 0.0, "count");
    add("obs.facet_overhead_s", facet_overhead, "s");
    add("obs.postmortem_s", pass->journal.postmortem_s, "s");
    add("obs.share",
        ratio(facet_overhead + log.total_seconds("obs.journal_snapshot") +
                  log.total_seconds("obs.analyze_journal"),
              pass_s),
        "ratio");
  }

  for (const char* name :
       {"workload", "cloud", "core", "stream", "sim", "obs"}) {
    add(std::string("layer.") + name + "_s", layer(name), "s");
  }
  add("layer.coverage_frac", ratio(covered, traced_s), "ratio");
  add("bench.traced_s", traced_s, "s");
  add("bench.untraced_s", traced_s - covered, "s");
  add("bench.trace_overhead_frac", ratio(pass_s - plain_s, plain_s), "ratio");
  add("bench.threads", static_cast<double>(global_pool().size()), "count");

  out.checks.expect(ratio(covered, traced_s) >= 0.95,
                    "layer spans cover at least 95% of the traced wall time");
  out.checks.expect(global_pool().size() <= online_cpus(),
                    "pool threads at or below the CPUs available");

  if (!spans_out.empty()) {
    std::ofstream os(spans_out);
    os << std::setprecision(9);
    log.write_json(os);
    if (!os) throw std::runtime_error("cannot write spans to " + spans_out);
  }
  return out;
}

// --- self-test --------------------------------------------------------------

/// Tiny versions of all three workloads on the default and held-out seeds,
/// measured and traced, with every check and guard.
int self_test() {
  std::size_t failed = 0;
  std::size_t attempted = 0;
  for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
    for (const char* workload : {"admission", "online_obs", "online_flow"}) {
      const Spec spec = make_spec(workload, /*tiny=*/true);
      for (const bool traced : {false, true}) {
        const RunResult r =
            traced ? traced_run(spec, seed, "") : measured_run(spec, seed, 0.0);
        attempted += r.checks.attempted();
        failed += r.checks.failed();
        std::cout << "self-test " << workload << " seed " << seed
                  << (traced ? " traced" : " measured") << ": "
                  << r.checks.attempted() - r.checks.failed() << "/"
                  << r.checks.attempted() << " checks passed\n";
      }
    }
  }
  std::cout << "self-test: " << attempted - failed << "/" << attempted
            << " checks passed\n";
  return failed == 0 ? 0 : 1;
}

int run(int argc, char** argv) {
  const Args args(argc, argv);
  set_obs_facets(false);
  if (args.get_bool("self-test", false)) return self_test();

  if (!args.has("workload")) {
    throw std::invalid_argument("--workload is required");
  }
  const std::string workload = args.get("workload", "");
  const std::uint64_t seed = args.get_seed("seed", kDefaultSeed);
  const double seconds = args.get_double("seconds", 20.0);
  const bool trace = args.get_int("trace", 0) != 0;
  const Spec spec = make_spec(workload, /*tiny=*/false);

  std::cout << "workload " << spec.name << " seed " << seed << " seconds "
            << seconds << " trace " << (trace ? 1 : 0) << " sites "
            << spec.gen.sites << " queries " << spec.gen.queries << "\n";
  const RunResult r = trace ? traced_run(spec, seed, args.get("spans-out", ""))
                            : measured_run(spec, seed, seconds);
  print_result(r);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "edgerep_e2e: " << e.what() << "\n";
    return 2;
  }
}
