#include "sim/online.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cloud/delay.h"
#include "net/routes.h"
#include "obs/causal_sink.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "sim/arrivals.h"
#include "sim/event_kernel.h"
#include "sim/flows.h"
#include "sim/site_fill_index.h"
#include "util/rng.h"

namespace edgerep {

void OnlineStatusBoard::publish(const OnlineStatus& s) {
  const std::lock_guard<std::mutex> lock(mu_);
  status_ = s;
}

OnlineStatus OnlineStatusBoard::read() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

bool OnlineStatusBoard::due(std::uint64_t min_gap_ns) {
  const std::uint64_t now = obs::now_ns();
  std::uint64_t last = last_pub_ns_.load(std::memory_order_relaxed);
  if (last != 0 && now - last < min_gap_ns) return false;
  return last_pub_ns_.compare_exchange_strong(last, now,
                                              std::memory_order_relaxed);
}

double OnlineStatusBoard::sim_clock() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return status_.sim_clock;
}

std::size_t OnlineStatusBoard::inflight() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return status_.inflight_demands;
}

double OnlineStatusBoard::utilization() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return status_.utilization;
}

bool OnlineStatusBoard::finished() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return status_.finished;
}

void OnlineStatusBoard::write_json(std::ostream& os) const {
  const OnlineStatus s = read();
  const auto old = os.precision(17);
  os << "{\"sim_clock\": ";
  obs::write_json_double(os, s.sim_clock);
  os << ", \"finished\": " << (s.finished ? "true" : "false")
     << ", \"arrivals_seen\": " << s.arrivals_seen
     << ", \"inflight_demands\": " << s.inflight_demands
     << ", \"admitted_queries\": " << s.admitted_queries
     << ", \"rejected_queries\": " << s.rejected_queries
     << ", \"failed_by_fault\": " << s.failed_by_fault
     << ", \"demands_relocated\": " << s.demands_relocated
     << ", \"fault_events_applied\": " << s.fault_events_applied
     << ", \"replicas_lost\": " << s.replicas_lost << ", \"utilization\": ";
  obs::write_json_double(os, s.utilization);
  os << ", \"site_in_use\": [";
  for (std::size_t i = 0; i < s.site_in_use.size(); ++i) {
    if (i > 0) os << ", ";
    obs::write_json_double(os, s.site_in_use[i]);
  }
  os << "], \"site_available\": [";
  for (std::size_t i = 0; i < s.site_available.size(); ++i) {
    if (i > 0) os << ", ";
    obs::write_json_double(os, s.site_available[i]);
  }
  os << "], \"active_flows\": " << s.active_flows
     << ", \"flow_rate_changes\": " << s.flow_rate_changes
     << ", \"flow_late_transfers\": " << s.flow_late_transfers << "}\n";
  os.precision(old);
}

namespace {

struct SiteLoad {
  double available = 0.0;  ///< fault-free A(v_l); faults scale it on query
  double in_use = 0.0;
};

/// Where (and when, absolute sim seconds) one admitted demand finally
/// completed — relocation overwrites it.  Feeds the deadline-SLO rollup.
struct DemandEnd {
  SiteId site = kInvalidSite;
  double completion = 0.0;
};

/// The arrival process, streamed one arrival at a time: the run keeps one
/// pending arrival in the heap and draws the next when it pops, so event
/// storage stays O(inflight) while the draws follow instance order.
struct ArrivalStream {
  Rng rng;
  double clock = 0.0;
  QueryId next_id = 0;
};

/// Sim-time gap between telemetry refresh ticks when a status board is
/// attached.  Ticks read state and publish; they never write sim state, so
/// the cadence is not part of the determinism contract.
constexpr double kStatusTickGap = 0.25;

/// Effective link capacity of the flow backend in the contention-free
/// limit (OnlineConfig::oversubscription == 0).  Large enough that no link
/// ever binds (every transfer is capped at nominal rate 1.0), small enough
/// that capacity arithmetic stays finite.
constexpr double kContentionFreeCapacity = 1e18;

/// Per-edge effective capacities for the flow backend:
/// `edge.capacity / oversubscription`, or kContentionFreeCapacity for every
/// edge when oversubscription == 0.
std::vector<double> flow_link_capacities(const Graph& g,
                                         double oversubscription) {
  std::vector<double> caps;
  caps.reserve(g.num_edges());
  for (const Edge& e : g.edges()) {
    caps.push_back(oversubscription == 0.0 ? kContentionFreeCapacity
                                           : e.capacity / oversubscription);
  }
  return caps;
}

// One run_online call as a kernel object on the allocation-free event core
// of sim/event_kernel.h:
//
//  * Its fields are the run's state, and each EvKind has one handler member
//    (on_arrival, ..., on_transfer_done) that run()'s switch dispatches to.
//    POD events sit in a 4-ary (time, seq) heap; banded seqs order
//    simultaneous events (faults < arrivals < dynamic events < status
//    ticks), FIFO within a band.
//  * Arrivals and fault events stream lazily — the heap holds one pending
//    arrival, one pending fault, the in-flight completions, and at most one
//    status tick, so event storage is O(inflight), not O(horizon).
//  * Flights live in a generation-stamped slab: a completion event for a
//    killed or relocated flight dereferences to null and self-discards.
//  * Replica membership is mirrored in a per-(dataset, site) byte mask, so
//    the admission scan's replica check is O(1) instead of O(|replicas|).
//  * Admission and relocation select sites over one load view and seat a
//    demand through one member, launch().
//
// Every floating-point accumulation (site loads, in_use_total, tentative
// reservations) happens in a fixed order; tests/golden/ pins the results
// bit for bit.  Each causal step is one emit() on an obs::CausalSink, which
// feeds every obs facet (obs/causal_sink.h); only the status gauges bypass
// it.
struct OnlineKernel {
  using Kind = obs::RecordKind;

  /// One demand's admission choice, held until its query commits.
  struct Decision {
    SiteId site = kInvalidSite;
    bool new_replica = false;
    double need = 0.0;
    double proc = 0.0;
    double total_delay = 0.0;
  };

  const Instance& inst;
  const OnlineConfig& cfg;
  const std::size_t num_sites;
  const std::size_t num_datasets;
  TypedEventQueue queue;
  FlightSlab slab;
  FaultState faults;
  obs::CausalSink sink{obs::Producer::kOnline};
  const bool metrics_on = obs::metrics_enabled();  // status gauges
  OnlineResult res;
  OnlineKernelStats& ks = res.kernel_stats;

  // Replica state: res.replica_sites' per-dataset site vectors are the
  // contract-visible representation, and the list site selection walks once
  // K is spent; the byte mask is their O(1)-lookup mirror.
  std::vector<std::uint8_t> replica_mask;

  // Site loads and their fill bounds for site selection: the index is
  // refreshed at every write to a site's in_use and after every site fault.
  std::vector<SiteLoad> sites;
  double total_available = 0.0;
  double in_use_total = 0.0;
  SiteFillIndex fill_index;

  // Per-site flight handles (consulted only by fault handlers).  Stale
  // handles are skipped on read and compacted when they outnumber the live
  // ones, so each list stays O(peak live at that site), not O(launches).
  std::vector<std::vector<FlightHandle>> site_flights;
  std::vector<std::uint32_t> site_live;

  std::size_t inflight_count = 0;
  std::size_t arrivals_seen = 0;
  std::size_t rejected_queries = 0;
  std::uint32_t status_tick = 0;

  // Demand slots: (query m, demand d) is slot offsets[m] + d of one flat
  // table (offsets holds |Q| + 1 prefix sums), sized once.
  std::vector<std::size_t> offsets;
  std::vector<DemandEnd> demand_ends;
  std::vector<FlightHandle> qd_flight;  // latest flight: the fault kill index

  // Flow backend (cfg.network == kFlow): every admitted transfer is
  // replayed as a rate-capped flow whose contention-stretched completion
  // overwrites (via max) the table prediction.  Completions surface as
  // kTransferDone events.
  const bool flow_on;
  std::unique_ptr<FlowEngine> flow;
  std::vector<double> flow_base_caps;  // effective capacity per edge
  std::vector<double> node_scale;      // per node: least 1 − lost fraction
  std::vector<QueryId> slot_query;     // demand slot -> owning query
  std::vector<std::uint32_t> qd_flow;  // demand slot -> live flow slot
  std::vector<EdgeId> route_buf;
  std::vector<double> flow_predicted;  // per query, table-priced completion
  std::size_t flow_late = 0;           // deliveries after predicted time
  // Routes over the links that are up: row = evaluation site, filled on
  // its first transfer; a link fault drops the filled rows, as FaultState
  // rebuilds its delay overlay.
  RouteTable routes;

  ArrivalStream arrivals;
  std::size_t next_fault = 0;  // index of the pending fault event

  // Admission scratch, reused across arrivals.  `tentative` and
  // `tentative_replicas` are dirty-reset when an admission ends: only the
  // entries it touched are zeroed, so every entry is exactly 0 outside an
  // admission without O(sites) work.
  std::vector<Decision> decisions;
  std::vector<double> tentative;
  std::vector<SiteId> tentative_dirty;
  std::vector<std::size_t> tentative_replicas;
  std::vector<DatasetId> tentative_rep_dirty;
  std::vector<std::pair<double, SiteId>> cand;
  // Fault scratch: (birth, handle) of a failing query's live flights, and
  // a capacity-struck site's handle list as of the fault instant.
  std::vector<std::pair<std::uint64_t, FlightHandle>> kill_buf;
  std::vector<FlightHandle> shed_buf;
  // Side values for the sink, refilled per step while it is on.
  std::vector<std::uint32_t> side_sets;  // datasets
  std::vector<std::uint32_t> side_sites;

  // The flow engine's rate listener holds `this`.
  OnlineKernel(const OnlineKernel&) = delete;
  OnlineKernel& operator=(const OnlineKernel&) = delete;
  OnlineKernel(const Instance& instance, const OnlineConfig& config,
               const ReplicaPlan* proactive)
      : inst(instance),
        cfg(config),
        num_sites(instance.sites().size()),
        num_datasets(instance.datasets().size()),
        faults(instance),
        replica_mask(num_datasets * num_sites, 0),
        sites(num_sites),
        fill_index(num_sites),
        site_flights(num_sites),
        site_live(num_sites, 0),
        flow_on(config.network == OnlineNetwork::kFlow),
        arrivals{Rng(config.seed)},
        tentative(num_sites, 0.0),
        tentative_replicas(num_datasets, 0) {
    queue.reserve(256);
    res.replica_sites.resize(num_datasets);
    if (proactive != nullptr) {
      for (const Dataset& d : inst.datasets()) {
        for (const SiteId l : proactive->replica_sites(d.id)) {
          add_replica(d.id, l);
        }
      }
    } else {
      for (const Dataset& d : inst.datasets()) {
        if (d.origin != kInvalidSite) add_replica(d.id, d.origin);
      }
    }
    for (const Site& s : inst.sites()) {
      sites[s.id].available = s.available;
      total_available += s.available;
    }
    for (const Site& s : inst.sites()) refresh_fill(s.id);

    offsets.assign(inst.queries().size() + 1, 0);
    for (const Query& q : inst.queries()) {
      offsets[q.id + 1] = offsets[q.id] + q.demands.size();
    }
    demand_ends.resize(offsets.back());
    qd_flight.resize(offsets.back());

    if (flow_on) {
      flow_base_caps = flow_link_capacities(inst.graph(), cfg.oversubscription);
      flow = std::make_unique<FlowEngine>(queue, flow_base_caps);
      node_scale.assign(inst.graph().num_nodes(), 1.0);
      std::vector<NodeId> site_nodes;
      site_nodes.reserve(num_sites);
      for (const Site& s : inst.sites()) site_nodes.push_back(s.node);
      routes =
          RouteTable::compute(inst.graph(), site_nodes, faults.edge_mask());
      slot_query.resize(offsets.back());
      for (const Query& q : inst.queries()) {
        for (std::uint32_t d = 0; d < q.demands.size(); ++d) {
          slot_query[slot(q.id, d)] = q.id;
        }
      }
      qd_flow.assign(offsets.back(), FlowEngine::kNoFlow);
      flow_predicted.resize(inst.queries().size(), 0.0);
      flow->set_rate_listener([this](std::uint32_t tag, double t, double rate,
                                     double remaining, EdgeId bottleneck) {
        if (rate > 0.0) ++res.flow_gap.rate_changes;
        if (!sink.on()) return;
        // arg 1 = retirement at the actual completion.
        sink.emit(Kind::kFlowRateChange,
                  {.time = t,
                   .v0 = rate,
                   .v1 = remaining,
                   .a = tag,
                   .b = static_cast<std::uint32_t>(bottleneck),
                   .arg = static_cast<std::uint8_t>(rate > 0.0 ? 0 : 1)});
      });
    }

    res.outcomes.resize(inst.queries().size());
    push_next_fault();
    push_next_arrival();
    if (cfg.status_board != nullptr) queue.push_status(0.0);
  }

  [[nodiscard]] std::size_t slot(QueryId m, std::uint32_t d) const {
    return offsets[m] + d;
  }

  void add_replica(DatasetId n, SiteId l) {
    res.replica_sites[n].push_back(l);
    replica_mask[static_cast<std::size_t>(n) * num_sites + l] = 1;
  }
  [[nodiscard]] bool has_replica(DatasetId n, SiteId l) const {
    return replica_mask[static_cast<std::size_t>(n) * num_sites + l] != 0;
  }

  void refresh_fill(SiteId s) {
    fill_index.update(s, faults.site_up(s), sites[s].in_use,
                      faults.available(s));
  }

  void compact_site(std::vector<FlightHandle>& v) {
    std::size_t w = 0;
    for (const FlightHandle h : v) {
      if (slab.get(h) != nullptr) v[w++] = h;
    }
    v.resize(w);
  }

  std::span<const std::uint32_t> demanded(const Query& q) {
    side_sets.clear();
    for (const DatasetDemand& dd : q.demands) side_sets.push_back(dd.dataset);
    return side_sets;
  }
  [[nodiscard]] double util(SiteId s) const {
    const double eff = faults.available(s);
    return eff > 0.0 ? sites[s].in_use / eff : 1.0;
  }

  void track_peak() {
    if (total_available <= 0.0) return;
    res.peak_utilization =
        std::max(res.peak_utilization, in_use_total / total_available);
  }

  void publish_board(bool finished) {
    OnlineStatus st;
    st.sim_clock = queue.now();
    st.arrivals_seen = arrivals_seen;
    st.inflight_demands = inflight_count;
    st.admitted_queries = res.admitted_queries;
    st.rejected_queries = rejected_queries;
    st.failed_by_fault = res.queries_failed_by_fault;
    st.demands_relocated = res.demands_relocated;
    st.fault_events_applied = res.fault_events_applied;
    st.replicas_lost = res.replicas_lost_to_faults;
    st.utilization =
        total_available > 0.0 ? in_use_total / total_available : 0.0;
    st.site_in_use.reserve(num_sites);
    st.site_available.reserve(num_sites);
    for (const Site& s : inst.sites()) {
      st.site_in_use.push_back(sites[s.id].in_use);
      st.site_available.push_back(faults.available(s.id));
    }
    st.active_flows = flow_on ? flow->active_flows() : 0;
    st.flow_rate_changes = res.flow_gap.rate_changes;
    st.flow_late_transfers = flow_late;
    st.finished = finished;
    cfg.status_board->publish(st);
  }
  void push_status(bool force) {
    OnlineStatusBoard* board = cfg.status_board;
    if (!metrics_on && board == nullptr) return;
    if (!force) {
      if ((++status_tick & 31u) != 0) return;
      if (board != nullptr && !board->due(2'000'000)) return;
    }
    if (metrics_on) {
      static obs::Gauge& g_inflight = obs::metrics().gauge(
          "edgerep_online_inflight", "demands currently holding resource");
      static obs::Gauge& g_clock = obs::metrics().gauge(
          "edgerep_online_sim_clock_seconds", "simulated seconds elapsed");
      static obs::Gauge& g_util = obs::metrics().gauge(
          "edgerep_online_utilization",
          "in-use GHz over fault-free total GHz");
      g_inflight.set(static_cast<double>(inflight_count));
      g_clock.set(queue.now());
      g_util.set(total_available > 0.0 ? in_use_total / total_available
                                       : 0.0);
      // Event-core internals, refreshed on the same cadence so /metrics and
      // /timeseries expose the event core's live state during --serve.
      static obs::Gauge& g_pending = obs::metrics().gauge(
          "edgerep_kernel_pending_events",
          "event core: events pending (heap + immediates ring)");
      static obs::Gauge& g_peak_pending = obs::metrics().gauge(
          "edgerep_kernel_peak_pending_events",
          "event core: high-water of pending events");
      static obs::Gauge& g_live_flights = obs::metrics().gauge(
          "edgerep_kernel_live_flights", "flight slab: live slots");
      static obs::Gauge& g_peak_flights = obs::metrics().gauge(
          "edgerep_kernel_peak_flights", "flight slab: high-water of live slots");
      static obs::Gauge& g_slab_churn = obs::metrics().gauge(
          "edgerep_kernel_flight_destroys",
          "flight slab: generation churn (slots destroyed and recycled)");
      static obs::Gauge& g_ring_hw = obs::metrics().gauge(
          "edgerep_kernel_ring_high_water",
          "event core: immediates-ring occupancy high-water");
      g_pending.set(static_cast<double>(queue.pending()));
      g_peak_pending.set(static_cast<double>(queue.peak_pending()));
      g_live_flights.set(static_cast<double>(slab.live_count()));
      g_peak_flights.set(static_cast<double>(slab.peak_live()));
      g_slab_churn.set(static_cast<double>(slab.destroys()));
      g_ring_hw.set(static_cast<double>(queue.peak_ring_pending()));
      if (flow_on) {
        static obs::Gauge& g_flows = obs::metrics().gauge(
            "edgerep_online_active_flows",
            "flow backend: transfers currently in flight");
        static obs::Gauge& g_ratech = obs::metrics().gauge(
            "edgerep_online_flow_rate_changes",
            "flow backend: max-min re-fill rate transitions");
        static obs::Gauge& g_late = obs::metrics().gauge(
            "edgerep_online_flow_late_transfers",
            "flow backend: deliveries after their table-predicted time");
        g_flows.set(static_cast<double>(flow->active_flows()));
        g_ratech.set(static_cast<double>(res.flow_gap.rate_changes));
        g_late.set(static_cast<double>(flow_late));
      }
    }
    if (board == nullptr) return;
    publish_board(force && arrivals_seen == inst.queries().size());
  }

  /// Abort the live flow of one demand slot, if any — kill paths and
  /// relocation call this; the table prediction in demand_ends stands.
  void cancel_transfer(std::size_t ls) {
    if (!flow_on || qd_flow[ls] == FlowEngine::kNoFlow) return;
    flow->cancel(qd_flow[ls]);
    qd_flow[ls] = FlowEngine::kNoFlow;
  }

  /// Route one admitted transfer as a flow: full evaluation delay as the
  /// flow size, nominal rate capped at 1.0 (so an uncontended flow finishes
  /// exactly at the priced delay), path = shortest route from the
  /// evaluation site to the query home over the links up now, the ones its
  /// delay was priced on.  Local evaluations (empty route) and zero-work
  /// transfers are not flows — the prediction stands.
  void start_transfer(QueryId m, std::uint32_t demand, SiteId site,
                      double total) {
    if (!flow_on) return;
    const std::size_t ls = slot(m, demand);
    cancel_transfer(ls);
    if (total <= 0.0) return;
    const NodeId home = inst.site(inst.query(m).home).node;
    if (!routes.edge_path(inst.graph(), site, home, route_buf) ||
        route_buf.empty()) {
      return;
    }
    const std::uint32_t flow_slot =
        flow->start_flow(total, route_buf, static_cast<std::uint32_t>(ls),
                         /*rate_cap=*/1.0);
    if (flow_slot != FlowEngine::kNoFlow) {
      qd_flow[ls] = flow_slot;
      ++res.flow_gap.flows_routed;
    }
  }

  /// Capacity faults steal NIC bandwidth along with compute.  A link's
  /// capacity is base × max(min over its endpoint sites of (1 − lost
  /// fraction), 1e-6): the more degraded endpoint binds, an endpoint node
  /// without a site does not, and the clamp keeps flows progressing.
  /// Crashes do not enter (the co-located switch survives), and link
  /// up/down events reroute future transfers only — in-flight transfers are
  /// not re-simulated (see the contract in sim/online.h).  Called on every
  /// capacity loss or restore at `s`; re-sets every link at s's node.
  void update_flow_links(SiteId s) {
    if (!flow_on) return;
    const NodeId x = inst.site(s).node;
    double least = 1.0;
    for (const Site& t : inst.sites()) {
      if (t.node != x) continue;
      least = std::min(least, 1.0 - faults.lost_fraction(t.id));
    }
    node_scale[x] = least;
    for (const HalfEdge& he : inst.graph().neighbors(x)) {
      const double scale =
          std::max(std::min(node_scale[x], node_scale[he.to]), 1e-6);
      flow->set_link_capacity(he.edge, flow_base_caps[he.edge] * scale);
    }
  }

  /// Return a live flight's resource to its site (completion or kill).
  void release_flight(const Flight& f) {
    sites[f.site].in_use -= f.need;
    refresh_fill(f.site);
    --inflight_count;
    in_use_total -= f.need;
    --site_live[f.site];
  }

  /// Release a flight's resource and recycle its slot (no-op on stale
  /// handles).  The slot's flow, if still in the air, is silently aborted.
  void kill_flight(FlightHandle h) {
    Flight* f = slab.get(h);
    if (f == nullptr) return;
    release_flight(*f);
    cancel_transfer(slot(f->query, f->demand));
    slab.destroy(h);
  }

  /// A fault kills a live flight at `s` (cause 0: site down, 1: capacity
  /// loss); relocation follows separately.
  void shed_flight(FlightHandle h, QueryId m, std::uint32_t demand, SiteId s,
                   std::uint16_t cause) {
    if (sink.on()) {
      sink.emit(Kind::kShed, {.time = queue.now(),
                              .a = m,
                              .site = s,
                              .arg = static_cast<std::uint8_t>(demand),
                              .flags = cause});
    }
    kill_flight(h);
  }

  void launch_flight(QueryId m, std::uint32_t demand, SiteId site, double need,
                     double proc) {
    const FlightHandle h = slab.create();
    Flight& f = slab.at(h.slot);
    f.query = m;
    f.demand = demand;
    f.site = site;
    f.need = need;
    site_flights[site].push_back(h);
    ++site_live[site];
    if (site_flights[site].size() > 64 &&
        site_flights[site].size() > 2 * site_live[site]) {
      compact_site(site_flights[site]);
    }
    qd_flight[slot(m, demand)] = h;
    sites[site].in_use += need;
    refresh_fill(site);
    ++inflight_count;
    in_use_total += need;
    queue.push_dynamic(EvKind::kComputeDone, queue.now() + proc, h.slot,
                       h.gen);
  }

  /// The one launch path of admission and relocation: seat demand `demand`
  /// of query `m` at `site` — the replica the choice placed, the flight,
  /// the demand's end and the query's completion — and, while the sink is
  /// on, pass the flight's record and completion to the caller's `emit`
  /// before the transfer starts (a transfer start can emit kFlowRateChange
  /// records).
  template <class Emit>
  void launch(QueryId m, std::uint32_t demand, SiteId site, bool new_replica,
              double need, double proc, double total, const Emit& emit) {
    const DatasetId n = inst.query(m).demands[demand].dataset;
    if (new_replica && !has_replica(n, site)) add_replica(n, site);
    launch_flight(m, demand, site, need, proc);
    const double completion = queue.now() + total;
    demand_ends[slot(m, demand)] = {site, completion};
    OnlineOutcome& o = res.outcomes[m];
    o.completion_time = std::max(o.completion_time, completion);
    if (sink.on()) {
      const obs::JournalRecord rec{
          .time = queue.now(),
          .v0 = total,
          .v1 = proc,
          .a = m,
          .b = n,
          .site = site,
          .arg = static_cast<std::uint8_t>(demand),
          .flags = static_cast<std::uint16_t>(
              inst.site(site).is_data_center() ? 1 : 0)};
      emit(rec, completion);
    }
    start_transfer(m, demand, site, total);
    if (flow_on) flow_predicted[m] = std::max(flow_predicted[m], completion);
  }

  void fail_query(QueryId m) {
    if (res.outcomes[m].failed_by_fault) return;
    const Query& q = inst.query(m);
    if (sink.on()) {
      sink.emit(Kind::kFail, {.time = queue.now(), .a = m},
                {.datasets = demanded(q)});
    }
    // Kill in launch order (birth), so the load ledger's ± sequence — part
    // of the golden contract — does not depend on slot reuse.
    kill_buf.clear();
    const std::size_t base = slot(m, 0);
    for (std::size_t d = 0; d < q.demands.size(); ++d) {
      const FlightHandle h = qd_flight[base + d];
      const Flight* f = slab.get(h);
      if (f != nullptr) kill_buf.emplace_back(f->birth, h);
    }
    std::sort(kill_buf.begin(), kill_buf.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (const auto& [birth, h] : kill_buf) kill_flight(h);
    if (flow_on) {
      // Demands whose compute already finished may still be shipping their
      // result; a failed query delivers nothing, so abort every slot.
      for (std::size_t d = 0; d < q.demands.size(); ++d) {
        cancel_transfer(base + d);
      }
    }
    if (res.outcomes[m].admitted && res.admitted_queries > 0) {
      --res.admitted_queries;
    }
    res.outcomes[m].admitted = false;
    res.outcomes[m].failed_by_fault = true;
    ++res.queries_failed_by_fault;
  }

  // Site selection: the (fill, site) argmin over every up, replica-
  // admissible, capacity- and deadline-feasible site, with fills read from
  // load_at().  The argmin does not depend on the order sites are visited
  // in, so each case scores only the sites that can still win, and tests
  // the deadline (the only delay-table touch, a cache miss per site at 10k
  // sites) as late as it can:
  //  * K spent: only the dataset's replica sites (≤ K) are admissible.
  //    Their fills are scored, then deadlines are tested in (fill, site)
  //    order; after 8 misses the survivors are sorted once and walked.
  //  * K left: every up site is admissible.  The fill_index search scores
  //    sites in bound order and tests the deadline only of a site that
  //    beats the best (fill, site) so far.
  // Both keep the lowest site id among equal fills.
  [[nodiscard]] bool can_place_replica(DatasetId n) const {
    const std::size_t replicas =
        res.replica_sites[n].size() + tentative_replicas[n];
    return cfg.reactive_replicas && replicas < inst.max_replicas();
  }
  [[nodiscard]] double load_at(SiteId s) const {
    return sites[s].in_use + tentative[s];
  }
  bool deadline_ok(const Query& q, const DatasetDemand& dd, SiteId s) {
    ++ks.deadline_tests;
    return faults.deadline_ok(q, dd, s);
  }
  SiteId search_all_sites(const Query& q, const DatasetDemand& dd,
                          double need) {
    double best_fill = std::numeric_limits<double>::infinity();
    SiteId best = kInvalidSite;
    fill_index.search(need, best_fill, [&](SiteId s) {
      ++ks.sites_scored;
      const double eff = faults.available(s);
      const double load = load_at(s);
      if (!SiteFillIndex::fits(load, need, eff)) return;
      const double fill = SiteFillIndex::fill(load, need, eff);
      if (fill > best_fill || (fill == best_fill && s > best)) return;
      if (!deadline_ok(q, dd, s)) return;
      best_fill = fill;
      best = s;
    });
    return best;
  }
  SiteId search_replica_sites(const Query& q, const DatasetDemand& dd,
                              double need) {
    cand.clear();
    for (const SiteId s : res.replica_sites[dd.dataset]) {
      if (!faults.site_up(s)) continue;
      ++ks.sites_scored;
      const double eff = faults.available(s);
      const double load = load_at(s);
      if (!SiteFillIndex::fits(load, need, eff)) continue;
      cand.emplace_back(SiteFillIndex::fill(load, need, eff), s);
    }
    std::size_t misses = 0;
    while (!cand.empty()) {
      if (misses >= 8) {
        // Deadline-hostile regime: order the survivors once and walk.
        std::sort(cand.begin(), cand.end());
        for (const auto& [fill, site] : cand) {
          if (deadline_ok(q, dd, site)) return site;
        }
        return kInvalidSite;
      }
      const auto it = std::min_element(cand.begin(), cand.end());
      const SiteId site = it->second;
      if (deadline_ok(q, dd, site)) return site;
      *it = cand.back();
      cand.pop_back();
      ++misses;
    }
    return kInvalidSite;
  }
  SiteId select_site(const Query& q, const DatasetDemand& dd, double need,
                     bool* new_replica) {
    ++ks.site_selections;
    const SiteId site = can_place_replica(dd.dataset)
                            ? search_all_sites(q, dd, need)
                            : search_replica_sites(q, dd, need);
    if (site != kInvalidSite) *new_replica = !has_replica(dd.dataset, site);
    return site;
  }

  bool try_relocate(QueryId m, std::uint32_t demand, double need) {
    const Query& q = inst.query(m);
    const DatasetDemand& dd = q.demands[demand];
    bool new_replica = false;
    const SiteId site = select_site(q, dd, need, &new_replica);
    if (site == kInvalidSite) return false;
    const double total = faults.evaluation_delay(q, dd, site);
    const double proc =
        inst.dataset(dd.dataset).volume * inst.site(site).proc_delay;
    ++res.demands_relocated;
    const double q_arrival = res.outcomes[m].arrival_time;
    const auto emit = [&](const obs::JournalRecord& rec, double completion) {
      sink.emit(Kind::kRelocate, rec,
                {.util = util(site),
                 .slack = q.deadline - (completion - q_arrival)});
    };
    launch(m, demand, site, new_replica, need, proc, total, emit);
    return true;
  }

  /// kRelocate: re-seat one displaced demand, or fail its query.  The
  /// displaced flight was already killed (its slot may be reused), so the
  /// event payload carries everything relocation needs.
  void on_relocate(const SimEvent& ev) {
    const QueryId m = ev.a;
    if (res.outcomes[m].failed_by_fault) return;
    if (!cfg.repair_on_failure || !try_relocate(m, ev.b, ev.c)) {
      fail_query(m);
    }
  }
  /// Fault handlers post displaced demands as immediates and drain them
  /// here, before time advances.
  void drain_relocations() {
    SimEvent ev;
    while (queue.pop_immediate(&ev)) on_relocate(ev);
  }

  void on_site_down(SiteId s) {
    // Replicas stored at the crashed site are lost.
    for (DatasetId n = 0; n < num_datasets; ++n) {
      if (!has_replica(n, s)) continue;
      auto& v = res.replica_sites[n];
      v.erase(std::find(v.begin(), v.end(), s));
      replica_mask[static_cast<std::size_t>(n) * num_sites + s] = 0;
      ++res.replicas_lost_to_faults;
    }
    // Kill every displaced flight first (so relocations see the freed
    // ledger), then post + drain their relocations in admission order.
    struct Displaced {
      QueryId query;
      std::uint32_t demand;
      double need;
      FlightHandle h;
    };
    std::vector<Displaced> displaced;
    for (const FlightHandle h : site_flights[s]) {
      const Flight* f = slab.get(h);
      if (f != nullptr) displaced.push_back({f->query, f->demand, f->need, h});
    }
    for (const Displaced& d : displaced) {
      shed_flight(d.h, d.query, d.demand, s, /*cause=*/0);
    }
    site_flights[s].clear();
    for (const Displaced& d : displaced) {
      queue.post(SimEvent{0.0, 0, d.query, d.demand, d.need,
                          EvKind::kRelocate});
    }
    drain_relocations();
    // Queries aggregating at the crashed home cannot deliver results.
    // Walk a snapshot of the live list in creation order — fail_query
    // mutates it while we walk.
    std::vector<FlightHandle> live;
    live.reserve(slab.live_count());
    for (std::uint32_t i = slab.live_head(); i != kNilSlot;
         i = slab.at(i).next) {
      live.push_back(FlightHandle{i, slab.at(i).gen});
    }
    for (const FlightHandle h : live) {
      const Flight* f = slab.get(h);
      if (f != nullptr && inst.query(f->query).home == s) {
        fail_query(f->query);
      }
    }
  }

  void on_capacity_loss(SiteId s) {
    const double eff = faults.available(s);
    if (sites[s].in_use <= eff + 1e-9) return;
    // Shed the most recently admitted work first, relocating each displaced
    // flight before considering the next — a relocation may legitimately
    // re-seat on this same (degraded) site, which appends to site_flights[s]
    // and can trigger compact_site mid-shed.  Walk a snapshot of the handles
    // present at entry so the live vector is free to grow and compact
    // underneath us.  Re-seated flights carry fresh generations (their
    // snapshot handles dereference to null) and fit the reduced availability
    // by construction, so they are never shed; compaction earlier in the run
    // only dropped stale handles, so the snapshot's back-to-front walk
    // visits live flights newest first.
    shed_buf.assign(site_flights[s].begin(), site_flights[s].end());
    for (std::size_t i = shed_buf.size(); i > 0; --i) {
      if (sites[s].in_use <= eff + 1e-9) break;
      const FlightHandle h = shed_buf[i - 1];
      const Flight* f = slab.get(h);
      if (f == nullptr) continue;
      const QueryId m = f->query;
      const std::uint32_t demand = f->demand;
      const double need = f->need;
      shed_flight(h, m, demand, s, /*cause=*/1);
      queue.post(SimEvent{0.0, 0, m, demand, need, EvKind::kRelocate});
      drain_relocations();
    }
  }

  // A failed demand, judged by select_site's capacity and budget tests
  // (tentative reservations included).  Only a site that could change the
  // reason has its deadline tested.
  obs::AuditReason classify_rejection(const Query& q, const DatasetDemand& dd,
                                      double need) {
    obs::RejectionClassifier why(can_place_replica(dd.dataset));
    for (const Site& s : inst.sites()) {
      if (why.settled()) break;
      if (!faults.site_up(s.id)) continue;
      const bool fits =
          SiteFillIndex::fits(load_at(s.id), need, faults.available(s.id));
      const bool replica = has_replica(dd.dataset, s.id);
      if (why.could_change(fits, replica) && deadline_ok(q, dd, s.id)) {
        why.site(fits, replica);
      }
    }
    return why.reason();
  }
  // The demands decided so far (`decisions`) roll back with the query.
  void reject(const Query& q, obs::AuditReason why) {
    side_sites.clear();
    for (const Decision& d : decisions) side_sites.push_back(d.site);
    sink.emit(Kind::kReject,
              {.time = queue.now(),
               .a = q.id,
               .b = static_cast<std::uint32_t>(decisions.size()),
               .arg = static_cast<std::uint8_t>(why)},
              {.datasets = demanded(q), .rolled_back = side_sites});
  }

  /// Decide every demand of `q` against the loads plus the reservations of
  /// the demands decided before it, then launch them all or none.
  bool admit(const Query& q) {
    decisions.clear();
    if (!faults.site_up(q.home)) {
      if (sink.on()) reject(q, obs::AuditReason::kNoDeadlineFeasibleSite);
      return false;
    }
    for (const DatasetDemand& dd : q.demands) {
      const double need = resource_demand(inst, q, dd);
      Decision best;
      best.site = select_site(q, dd, need, &best.new_replica);
      if (best.site == kInvalidSite) {
        if (sink.on()) reject(q, classify_rejection(q, dd, need));
        return false;
      }
      best.need = need;
      const Dataset& ds = inst.dataset(dd.dataset);
      best.proc = ds.volume * inst.site(best.site).proc_delay;
      best.total_delay = faults.evaluation_delay(q, dd, best.site);
      if (tentative[best.site] == 0.0) tentative_dirty.push_back(best.site);
      tentative[best.site] += need;
      if (best.new_replica) {
        if (tentative_replicas[dd.dataset] == 0) {
          tentative_rep_dirty.push_back(dd.dataset);
        }
        ++tentative_replicas[dd.dataset];
      }
      decisions.push_back(best);
    }
    double response = 0.0;
    for (std::size_t i = 0; i < q.demands.size(); ++i) {
      const Decision& d = decisions[i];
      const auto emit = [&](const obs::JournalRecord& rec, double) {
        sink.emit(Kind::kTransferStart, rec, {.placed_replica = d.new_replica});
      };
      launch(q.id, static_cast<std::uint32_t>(i), d.site, d.new_replica,
             d.need, d.proc, d.total_delay, emit);
      response = std::max(response, d.total_delay);
      if (sink.watching()) sink.site_util(queue.now(), d.site, util(d.site));
    }
    track_peak();
    if (sink.on()) sink.admitted(queue.now(), q.deadline - response);
    return true;
  }

  void push_next_arrival() {
    if (arrivals.next_id == inst.queries().size()) return;
    const double gap = cfg.arrivals == OnlineConfig::Arrivals::kPoisson
                           ? arrivals.rng.exponential(cfg.arrival_rate)
                           : 1.0 / cfg.arrival_rate;
    arrivals.clock += wave_gap(gap, arrivals.clock, cfg.wave_amplitude,
                               cfg.wave_period);
    const QueryId m = arrivals.next_id++;
    res.outcomes[m] = OnlineOutcome{m, arrivals.clock, false, 0.0, false};
    queue.push(SimEvent{arrivals.clock, evseq::make(evseq::kArrivalBand, m),
                        m, 0, 0.0, EvKind::kArrival});
  }
  void push_next_fault() {
    if (next_fault == cfg.faults.events.size()) return;
    queue.push(SimEvent{cfg.faults.events[next_fault].time,
                        evseq::make(evseq::kFaultBand, next_fault), 0, 0, 0.0,
                        EvKind::kFaultApply});
  }

  void on_arrival(QueryId m) {
    push_next_arrival();  // keep exactly one pending arrival in the heap
    ++arrivals_seen;
    const Query& q = inst.query(m);
    if (sink.on()) {
      sink.emit(Kind::kArrival,
                {.time = queue.now(),
                 .v0 = q.deadline,
                 .a = m,
                 .b = static_cast<std::uint32_t>(q.demands.size())},
                {.datasets = demanded(q)});
    }
    const bool ok = admit(q);
    // The admission is over, committed or rejected: drop its reservations.
    for (const SiteId s : tentative_dirty) tentative[s] = 0.0;
    tentative_dirty.clear();
    for (const DatasetId n : tentative_rep_dirty) tentative_replicas[n] = 0;
    tentative_rep_dirty.clear();
    res.outcomes[m].admitted = ok;
    if (ok) {
      ++res.admitted_queries;  // provisional; exact recount in finalize
    } else {
      ++rejected_queries;
    }
    push_status(false);
  }

  void on_compute_done(FlightHandle h) {
    Flight* f = slab.get(h);
    if (f == nullptr) return;  // killed or relocated; stale by generation
    release_flight(*f);
    if (sink.on()) {
      sink.emit(Kind::kComputeDone,
                {.time = queue.now(),
                 .a = f->query,
                 .site = f->site,
                 .arg = static_cast<std::uint8_t>(f->demand)},
                {.util = util(f->site)});
    }
    slab.destroy(h);
    push_status(false);
  }

  void on_fault() {
    const FaultEvent& e = cfg.faults.events[next_fault];
    ++next_fault;
    push_next_fault();
    faults.apply(e);
    if (e.kind == FaultKind::kLinkDown || e.kind == FaultKind::kLinkUp) {
      if (flow_on) routes.set_edge_mask(faults.edge_mask());
    } else {
      refresh_fill(e.site);  // a site event
    }
    ++res.fault_events_applied;
    if (sink.on()) {
      sink.emit(Kind::kFaultApply,
                {.time = queue.now(),
                 .v0 = e.fraction,
                 .a = static_cast<std::uint32_t>(e.edge),
                 .site = static_cast<std::uint32_t>(e.site),
                 .arg = static_cast<std::uint8_t>(e.kind)});
    }
    switch (e.kind) {
      case FaultKind::kSiteDown:
        on_site_down(e.site);
        break;
      case FaultKind::kCapacityLoss:
        update_flow_links(e.site);
        on_capacity_loss(e.site);
        break;
      case FaultKind::kCapacityRestore:
        update_flow_links(e.site);
        break;
      default:
        break;
    }
    push_status(false);
  }

  void on_status_tick() {
    OnlineStatusBoard* board = cfg.status_board;
    if (board != nullptr && board->due(2'000'000)) publish_board(false);
    if (arrivals_seen < inst.queries().size() || inflight_count > 0 ||
        (flow_on && flow->active_flows() > 0)) {
      queue.push_status(queue.now() + kStatusTickGap);
    }
  }

  /// A flow finished: overwrite the table-predicted completion with the
  /// flow-simulated actual.  Monotone (max), so the contention-free limit —
  /// where the actual equals the prediction bit for bit — changes nothing.
  void on_transfer_done(const SimEvent& ev) {
    if (!flow_on) return;  // table runs never schedule these
    const std::uint32_t tag = flow->handle_event(ev);
    if (tag == FlowEngine::kNoFlow) return;
    const std::size_t ls = tag;
    const double t = queue.now();
    qd_flow[ls] = FlowEngine::kNoFlow;
    DemandEnd& de = demand_ends[ls];
    OnlineOutcome& o = res.outcomes[slot_query[ls]];
    if (obs::past_due(t, de.completion)) ++flow_late;
    if (sink.watching()) {
      sink.delivered(t, static_cast<std::uint32_t>(ls), t - de.completion,
                     inst.query(o.query).deadline -
                         (std::max(o.completion_time, t) - o.arrival_time));
    }
    de.completion = std::max(de.completion, t);
    o.completion_time = std::max(o.completion_time, t);
    push_status(false);
  }

  /// Post-run aggregation: exact admitted recount, throughput, and the
  /// deadline-SLO rollup over the flat demand-end table.
  void finalize_online_result() {
    res.admitted_queries = 0;
    for (const OnlineOutcome& o : res.outcomes) {
      if (o.admitted) {
        ++res.admitted_queries;
        res.admitted_volume += inst.demanded_volume(o.query);
      }
    }
    res.throughput = inst.queries().empty()
                         ? 0.0
                         : static_cast<double>(res.admitted_queries) /
                               static_cast<double>(inst.queries().size());

    // Deadline-SLO rollup over the surviving queries.
    std::vector<double> query_slacks;
    std::vector<std::vector<double>> site_slacks(num_sites);
    query_slacks.reserve(res.admitted_queries);
    for (const OnlineOutcome& o : res.outcomes) {
      if (!o.admitted) continue;
      const Query& q = inst.query(o.query);
      query_slacks.push_back(q.deadline - (o.completion_time - o.arrival_time));
      const std::size_t base = slot(o.query, 0);
      for (std::size_t d = 0; d < q.demands.size(); ++d) {
        const DemandEnd& de = demand_ends[base + d];
        if (de.site == kInvalidSite) continue;
        site_slacks[de.site].push_back(q.deadline -
                                       (de.completion - o.arrival_time));
      }
    }
    res.slo = obs::rollup_slo(query_slacks);
    for (std::size_t s = 0; s < site_slacks.size(); ++s) {
      if (!site_slacks[s].empty()) {
        obs::add_site_slo(res.slo, static_cast<SiteId>(s), site_slacks[s]);
      }
    }
  }

  /// Predicted-vs-actual gap rollup of the flow backend: flow_predicted
  /// holds the table-priced completion per query (what OnlineOutcome::
  /// completion_time would be on a kTable run), the outcomes the actuals.
  /// Fills every FlowGapStats field except flows_routed / rate_changes,
  /// which the run accumulates live.
  void finalize_flow_gap() {
    FlowGapStats& g = res.flow_gap;
    double stretch_sum = 0.0;
    for (const OnlineOutcome& o : res.outcomes) {
      if (!o.admitted) continue;
      const Query& q = inst.query(o.query);
      ++g.queries_compared;
      const double pred_slack =
          q.deadline - (flow_predicted[o.query] - o.arrival_time);
      const double act_slack =
          q.deadline - (o.completion_time - o.arrival_time);
      const bool pred_hit = obs::meets_deadline(pred_slack);
      const bool act_hit = obs::meets_deadline(act_slack);
      if (pred_hit) ++g.predicted_hits;
      if (act_hit) ++g.actual_hits;
      if (pred_hit && !act_hit) ++g.gap_breaches;
      const double stretch = o.completion_time - flow_predicted[o.query];
      g.max_stretch = std::max(g.max_stretch, stretch);
      stretch_sum += stretch;
    }
    g.mean_stretch = g.queries_compared > 0
                         ? stretch_sum / static_cast<double>(g.queries_compared)
                         : 0.0;
  }

  OnlineResult run() {
    SimEvent ev;
    while (queue.pop(&ev)) {
      switch (ev.kind) {
        case EvKind::kArrival:
          on_arrival(ev.a);
          break;
        case EvKind::kComputeDone:
          on_compute_done(FlightHandle{ev.a, ev.b});
          break;
        case EvKind::kFaultApply:
          on_fault();
          break;
        case EvKind::kRelocate:
          // Normally drained inside the fault handlers; reaching here only
          // means a handler returned with the ring non-empty.
          on_relocate(ev);
          break;
        case EvKind::kStatusTick:
          on_status_tick();
          break;
        case EvKind::kTransferDone:
          on_transfer_done(ev);
          break;
      }
    }

    ks.events_processed = queue.events_popped();
    ks.peak_pending_events = queue.peak_pending();
    ks.peak_event_bytes = queue.peak_bytes();
    ks.peak_flights = slab.peak_live();
    ks.flight_bytes = slab.capacity_bytes();

    finalize_online_result();
    if (flow_on) finalize_flow_gap();
    if (sink.watching()) res.watchdog = obs::watchdog().stats();
    sink.finish();
    if (metrics_on) {
      static obs::Gauge& g_hit_ratio = obs::metrics().gauge(
          "edgerep_online_slo_hit_ratio",
          "deadline hit ratio of the last online run");
      g_hit_ratio.set(res.slo.hit_ratio);
    }
    push_status(true);
    return std::move(res);
  }
};

}  // namespace

OnlineResult run_online(const Instance& inst, const OnlineConfig& cfg,
                        const ReplicaPlan* proactive) {
  if (!inst.finalized()) {
    throw std::invalid_argument("run_online: instance not finalized");
  }
  check_arrival_params("run_online", cfg.arrival_rate, cfg.wave_amplitude,
                       cfg.wave_period);
  if (!(cfg.oversubscription >= 0.0) ||
      !std::isfinite(cfg.oversubscription)) {
    throw std::invalid_argument(
        "run_online: oversubscription must be finite and >= 0");
  }
  if (proactive != nullptr && &proactive->instance() != &inst) {
    throw std::invalid_argument("run_online: proactive plan is for a "
                                "different instance");
  }
  validate_fault_trace(inst, cfg.faults);
  return OnlineKernel(inst, cfg, proactive).run();
}


namespace {

inline void hash_bytes(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;  // FNV-1a 64-bit prime
  }
}
inline void hash_u64(std::uint64_t* h, std::uint64_t v) {
  hash_bytes(h, &v, sizeof v);
}
inline void hash_double(std::uint64_t* h, double v) {
  hash_u64(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t online_result_hash(const OnlineResult& res) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  hash_u64(&h, res.outcomes.size());
  for (const OnlineOutcome& o : res.outcomes) {
    hash_u64(&h, o.query);
    hash_double(&h, o.arrival_time);
    hash_u64(&h, o.admitted ? 1 : 0);
    hash_double(&h, o.completion_time);
    hash_u64(&h, o.failed_by_fault ? 1 : 0);
  }
  hash_u64(&h, res.admitted_queries);
  hash_double(&h, res.admitted_volume);
  hash_double(&h, res.throughput);
  hash_double(&h, res.peak_utilization);
  hash_u64(&h, res.replica_sites.size());
  for (const auto& v : res.replica_sites) {
    hash_u64(&h, v.size());
    for (const SiteId s : v) hash_u64(&h, s);
  }
  hash_u64(&h, res.fault_events_applied);
  hash_u64(&h, res.queries_failed_by_fault);
  hash_u64(&h, res.demands_relocated);
  hash_u64(&h, res.replicas_lost_to_faults);
  hash_u64(&h, res.slo.admitted_queries);
  hash_u64(&h, res.slo.deadline_hits);
  hash_double(&h, res.slo.hit_ratio);
  hash_double(&h, res.slo.p50_slack);
  hash_double(&h, res.slo.p95_slack);
  hash_double(&h, res.slo.p99_slack);
  hash_u64(&h, res.slo.per_site.size());
  for (const obs::SiteSlo& s : res.slo.per_site) {
    hash_u64(&h, s.site);
    hash_u64(&h, s.demands);
    hash_u64(&h, s.deadline_hits);
    hash_double(&h, s.p50_slack);
    hash_double(&h, s.p95_slack);
    hash_double(&h, s.p99_slack);
  }
  return h;
}

}  // namespace edgerep
