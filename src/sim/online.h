// Online admission control — the *reactive* counterpart to the paper's
// proactive placement.
//
// Queries arrive over time and must be admitted or rejected on arrival with
// no knowledge of future arrivals.  Unlike the static model (which reserves
// a site's computing resource for an admitted query forever), an admitted
// demand holds its |S_n|·r_m GHz only while it processes, so capacity is
// time-multiplexed across the arrival horizon.
//
// Replicas can be placed reactively on arrival (within the budget K), or
// seeded from a proactive plan computed offline — comparing the two
// quantifies the value of *proactive* replication, the premise of the
// paper's title (bench: ablation_proactive).
//
// Fault injection: `OnlineConfig::faults` carries a time-ordered
// `FaultTrace` (sim/faults.h) whose events fire on the same discrete-event
// clock as the arrivals.  A site crash kills the work in flight there and
// loses the replicas it stored; with `repair_on_failure` the displaced
// demands are immediately re-seated on surviving sites when capacity and
// effective deadlines allow, otherwise the affected queries fail.  Capacity
// degradation sheds the most recently admitted work first until the site
// fits its reduced availability.  Link faults reprice future admissions on
// the surviving topology and, on the flow backend, reroute every transfer
// started after them over the links that are up, the ones its delay was
// priced on; in-flight transfers keep their routes and are not
// re-simulated.
//
// Determinism contract: the arrival process is the *only* consumer of
// randomness, drawn from `Rng(seed)`; fault traces are pre-generated,
// deterministic inputs (workload/fault_gen.h derives per-component
// substreams from its own seed).  Fault events are scheduled before
// arrivals, so a fault and an arrival at the same instant resolve
// fault-first.  The event loop is single-threaded; only the link-fault
// overlay's delay rows may fill on the global pool, and rows are
// independent, so that cannot change a result.  The flow backend's route
// rows fill on the loop's thread, each on its first transfer.
// Identical (instance, config) inputs therefore reproduce identical
// fault+arrival event orderings and outcomes bit-for-bit, regardless of
// the thread count used to finalize the instance (pinned by
// tests/sim/online_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "cloud/plan.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "obs/watchdog.h"
#include "sim/faults.h"

namespace edgerep {

/// Point-in-time snapshot of a running online simulation, published by
/// run_online into an OnlineStatusBoard so the telemetry HTTP server can
/// answer /status while the run is in progress.
struct OnlineStatus {
  double sim_clock = 0.0;          ///< seconds of simulated time elapsed
  std::size_t arrivals_seen = 0;
  std::size_t inflight_demands = 0;
  std::size_t admitted_queries = 0;
  std::size_t rejected_queries = 0;
  std::size_t failed_by_fault = 0;
  std::size_t demands_relocated = 0;
  std::size_t fault_events_applied = 0;
  std::size_t replicas_lost = 0;
  double utilization = 0.0;        ///< in-use GHz / fault-free total GHz
  std::vector<double> site_in_use;     ///< per site, GHz
  std::vector<double> site_available;  ///< per site, fault-scaled GHz
  /// Flow-backend telemetry (zero on table runs).
  std::size_t active_flows = 0;        ///< transfers currently in flight
  std::size_t flow_rate_changes = 0;   ///< max-min re-fill transitions so far
  std::size_t flow_late_transfers = 0; ///< deliveries after their predicted time
  bool finished = false;
};

/// Mailbox between the (single-threaded, deterministic) simulation and
/// concurrent telemetry readers.  The simulation publishes snapshots; the
/// HTTP server and sampler read them.  Publication never feeds back into
/// the simulation, so attaching a board cannot change results.
class OnlineStatusBoard {
 public:
  void publish(const OnlineStatus& s);
  [[nodiscard]] OnlineStatus read() const;

  /// Wall-clock throttle for the publisher: true (and arms the next gap)
  /// when at least `min_gap_ns` elapsed since the last granted publish.
  bool due(std::uint64_t min_gap_ns);

  /// Cheap scalar reads for sampler probes (one mutex hop, no copies).
  [[nodiscard]] double sim_clock() const;
  [[nodiscard]] std::size_t inflight() const;
  [[nodiscard]] double utilization() const;
  [[nodiscard]] bool finished() const;

  /// One JSON object mirroring OnlineStatus (arrays included).
  void write_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  OnlineStatus status_;
  std::atomic<std::uint64_t> last_pub_ns_{0};
};

/// Transfer backend.  `kTable` prices and *simulates* transfers with the
/// static per-site delay table — a thousand simultaneous transfers through
/// one WMAN link are free.  `kFlow` keeps admission pricing on the table
/// but replays every admitted transfer as a flow over its shortest path
/// through the FlowEngine's max-min fair bandwidth sharing: completions
/// stretch under contention, and the run reports the predicted-vs-actual
/// SLO gap.  With `oversubscription == 0` (infinite link capacities) the
/// flow backend is bit-identical to the table backend — the correctness
/// oracle pinned by tests/sim/online_flow_test.cpp.
enum class OnlineNetwork : std::uint8_t { kTable, kFlow };

/// Predicted-vs-actual deadline accounting of the flow backend (zeroed on
/// table runs).  "Predicted" is the admission-time completion priced from
/// the delay table; "actual" is the flow-simulated completion under
/// contention.  Excluded from online_result_hash (like kernel_stats): the
/// gap is diagnostic — but it IS deterministic, and tests/golden/ pins it
/// beside the hash where a case depends on it.
struct FlowGapStats {
  std::size_t flows_routed = 0;       ///< transfers replayed as flows
  std::size_t rate_changes = 0;       ///< max-min re-fill rate transitions
  std::size_t queries_compared = 0;   ///< served queries with both verdicts
  std::size_t predicted_hits = 0;     ///< deadline hits per the delay table
  std::size_t actual_hits = 0;        ///< deadline hits under contention
  std::size_t gap_breaches = 0;       ///< predicted hit, actual miss
  double max_stretch = 0.0;           ///< max (actual − predicted), seconds
  double mean_stretch = 0.0;          ///< mean (actual − predicted), seconds
};

/// Executive accounting of one run's event core (excluded from
/// online_result_hash).
struct OnlineKernelStats {
  std::size_t events_processed = 0;
  /// High-water of simultaneously pending events: O(inflight), because
  /// arrivals and faults stream lazily.
  std::size_t peak_pending_events = 0;
  std::size_t peak_event_bytes = 0;  ///< event-storage high-water, bytes
  std::size_t peak_flights = 0;      ///< max concurrently live flights
  std::size_t flight_bytes = 0;      ///< flight-registry storage, bytes
  /// Admission scan work.  One site selection runs per demand admitted,
  /// rejected or relocated; it scores a site by reading its load and
  /// capacity (fit test, then fill).  Deadline tests (one delay lookup
  /// each) count the selection's and the rejection classifier's.
  std::size_t site_selections = 0;
  std::size_t sites_scored = 0;
  std::size_t deadline_tests = 0;
};

struct OnlineConfig {
  enum class Arrivals : std::uint8_t { kPoisson, kUniform };
  Arrivals arrivals = Arrivals::kPoisson;
  double arrival_rate = 2.0;  ///< queries/second
  /// Diurnal arrival wave: with both knobs > 0, the instantaneous rate is
  /// modulated by 1 + wave_amplitude·sin(2π·t / wave_period) (clamped to
  /// stay positive), giving the watchdog's change-point detectors a real
  /// flash-crowd signal.  Defaults OFF — the draw sequence (and thus every
  /// existing seed's arrival times) is bit-identical when amplitude == 0.
  double wave_amplitude = 0.0;  ///< peak fractional rate swing, [0, 1)
  double wave_period = 0.0;     ///< seconds per cycle
  /// Master seed of the arrival process (see the determinism contract in
  /// the header comment).  Identical seeds ⇒ identical arrival times and
  /// event orderings, with or without faults.
  std::uint64_t seed = 0x0a11;
  /// Allow placing new replicas at admission time (within K).  Replicas
  /// start at the seed plan's sites or, without one, at each dataset's
  /// origin; with false, only those are usable.
  bool reactive_replicas = true;

  /// Failure events injected during the horizon (validated against the
  /// instance; must be time-ordered).  Empty = fault-free, bit-identical to
  /// the pre-fault-model simulator.
  FaultTrace faults;
  /// On a crash or capacity loss, immediately try to re-seat the displaced
  /// in-flight demands on surviving sites (reactive repair).  With false,
  /// displaced queries simply fail.
  bool repair_on_failure = true;

  /// Optional live-status mailbox (not owned).  When set, the run publishes
  /// throttled OnlineStatus snapshots for the telemetry endpoints; results
  /// are bit-identical with or without a board (pinned by
  /// tests/integration/obs_equivalence_test.cpp).
  OnlineStatusBoard* status_board = nullptr;

  /// Transfer backend: admission always prices with the delay table; kFlow
  /// additionally verifies completions under max-min fair link sharing.
  OnlineNetwork network = OnlineNetwork::kTable;
  /// Scales link capacities for the flow backend: effective capacity =
  /// edge.capacity / oversubscription.  Larger values mean scarcer links.
  /// 0 is the contention-free limit (infinite capacities) — the oracle
  /// regime in which kFlow is bit-identical to kTable.
  double oversubscription = 1.0;
};

struct OnlineOutcome {
  QueryId query = 0;
  double arrival_time = 0.0;
  bool admitted = false;
  double completion_time = 0.0;  ///< arrival + max per-demand delay
  /// Admitted on arrival, then killed by a fault mid-flight (admitted is
  /// false for these — a failed query does not count toward throughput).
  bool failed_by_fault = false;
};

struct OnlineResult {
  std::vector<OnlineOutcome> outcomes;
  std::size_t admitted_queries = 0;
  double admitted_volume = 0.0;
  double throughput = 0.0;
  /// Max over time of total in-use GHz / total available GHz (availability
  /// is the fault-free total; a crash shows up as lost utilization).
  double peak_utilization = 0.0;
  /// Replica placement state at the end of the horizon.
  std::vector<std::vector<SiteId>> replica_sites;  ///< per dataset

  /// --- fault accounting (all zero on fault-free runs) ------------------
  std::size_t fault_events_applied = 0;
  std::size_t queries_failed_by_fault = 0;
  std::size_t demands_relocated = 0;  ///< displaced and re-seated in flight
  std::size_t replicas_lost_to_faults = 0;

  /// Deadline-SLO rollup (computed on every run; deterministic).  Slack
  /// can go negative only through fault-forced relocation or, under the
  /// flow backend, the contention-stretched actual completions.
  obs::SloRollup slo;

  /// Predicted-vs-actual gap of the flow backend (zeroed on table runs;
  /// excluded from online_result_hash).
  FlowGapStats flow_gap;

  /// Watchdog alert rollup (zeroed unless the watchdog facet was on;
  /// excluded from online_result_hash like the other diagnostic blocks,
  /// but deterministic — pinned by tests/obs/watchdog_test.cpp).
  obs::WatchdogStats watchdog;

  /// Event-core accounting (excluded from online_result_hash).
  OnlineKernelStats kernel_stats;
};

/// Run online admission over the instance's query population (arrival order
/// = instance order; arrival times drawn per cfg).  `proactive` optionally
/// seeds the replica placement from an offline plan (its assignments are
/// ignored — only x_{nl} carries over).  Deadlines of admitted queries hold
/// by construction: admission reserves resource for the processing window.
OnlineResult run_online(const Instance& inst, const OnlineConfig& cfg = {},
                        const ReplicaPlan* proactive = nullptr);

/// FNV-1a fingerprint over every contract field of the result (outcomes,
/// aggregates, replica placement, fault accounting, SLO rollup — raw double
/// bits, no rounding).  Two runs agree on the hash iff they agree bitwise;
/// kernel_stats is excluded.  tests/golden/online_hashes.txt pins it for
/// the test suites and the CI smokes.
[[nodiscard]] std::uint64_t online_result_hash(const OnlineResult& res);

}  // namespace edgerep
