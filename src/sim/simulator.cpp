#include "sim/simulator.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cloud/delay.h"
#include "net/routes.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "sim/arrivals.h"
#include "sim/event_kernel.h"
#include "sim/flows.h"
#include "util/rng.h"

namespace edgerep {

namespace {

constexpr double kGhzEps = 1e-9;
constexpr double kWorkEps = 1e-12;

// simulate() runs on the typed event core.  Every event is scheduled with
// push_dynamic, so simultaneous events run in scheduling order.  Payloads:
//   kArrival       a = task: submit it to its evaluation site
//   kComputeDone   reservation: a = task whose processing ended;
//                  processor sharing: a = site, b = wake token
//   kTransferDone  delay model: a = query whose result arrived;
//                  max-min model: a FlowEngine completion

struct Task {
  QueryId query = 0;
  double ghz = 0.0;       ///< resource demand (exclusive in reservation mode)
  double duration = 0.0;  ///< nominal processing time at full speed
  double transfer = 0.0;  ///< result transfer delay (store-and-forward model)
  double transfer_size = 0.0;       ///< α·|S_n| GB (flow model)
  SiteId eval_site = kInvalidSite;  ///< where processing happens
};

struct QueryState {
  double issue_time = 0.0;
  std::size_t remaining_results = 0;
  bool fully_served = false;
  double completion_time = 0.0;
  bool completed = false;
};

/// Shared glue: when a task's processing ends, ship the intermediate
/// result and complete the query when it was the last one.  With a flow
/// engine, transfers route as flows along `paths` instead of fixed delays.
class ResultCollector {
 public:
  using PathLookup = std::function<std::vector<EdgeId>(SiteId, QueryId)>;

  ResultCollector(TypedEventQueue& q, std::vector<QueryState>& queries,
                  FlowEngine* flows, PathLookup paths)
      : q_(&q), queries_(&queries), flows_(flows), paths_(std::move(paths)) {}

  void task_processed(const Task& t) {
    if (flows_ != nullptr) {
      flows_->start_flow(t.transfer_size, paths_(t.eval_site, t.query),
                         t.query);
    } else {
      q_->push_dynamic(EvKind::kTransferDone, q_->now() + t.transfer,
                       t.query, 0);
    }
  }

  void on_transfer_done(const SimEvent& ev) {
    const std::uint32_t query =
        flows_ != nullptr ? flows_->handle_event(ev) : ev.a;
    if (query == FlowEngine::kNoFlow) return;  // superseded prediction
    QueryState& qs = (*queries_)[query];
    if (--qs.remaining_results == 0) {
      qs.completion_time = q_->now();
      qs.completed = true;
    }
  }

 private:
  TypedEventQueue* q_;
  std::vector<QueryState>* queries_;
  FlowEngine* flows_;
  PathLookup paths_;
};

/// Reservation discipline: FIFO start order with head-of-line blocking; a
/// running task holds its GHz exclusively.
class ReservationEngine {
 public:
  ReservationEngine(TypedEventQueue& q, ResultCollector& results,
                    const std::vector<Task>& tasks,
                    std::vector<double> capacity)
      : q_(&q), results_(&results), tasks_(&tasks),
        free_(std::move(capacity)), waiting_(free_.size()) {}

  void submit(std::uint32_t task) {
    const SiteId l = (*tasks_)[task].eval_site;
    waiting_[l].push_back(task);
    try_start(l);
  }

  void on_finish(std::uint32_t task) {
    const Task& t = (*tasks_)[task];
    free_[t.eval_site] += t.ghz;
    try_start(t.eval_site);
    results_->task_processed(t);
  }

 private:
  void try_start(SiteId l) {
    while (!waiting_[l].empty() &&
           (*tasks_)[waiting_[l].front()].ghz <= free_[l] + kGhzEps) {
      const std::uint32_t task = waiting_[l].front();
      waiting_[l].pop_front();
      const Task& t = (*tasks_)[task];
      free_[l] -= t.ghz;
      q_->push_dynamic(EvKind::kComputeDone, q_->now() + t.duration, task, 0);
    }
  }

  TypedEventQueue* q_;
  ResultCollector* results_;
  const std::vector<Task>* tasks_;
  std::vector<double> free_;
  std::vector<std::deque<std::uint32_t>> waiting_;
};

/// Processor-sharing discipline: every task runs immediately; when demand
/// exceeds capacity all of a site's tasks progress at the common rate
/// capacity / Σ ghz.  Wake events carry a generation token so stale
/// predictions are ignored after arrivals change the rate.
class ProcessorSharingEngine {
 public:
  ProcessorSharingEngine(TypedEventQueue& q, ResultCollector& results,
                         const std::vector<Task>& tasks,
                         std::vector<double> capacity)
      : q_(&q), results_(&results), tasks_(&tasks), sites_(capacity.size()) {
    for (std::size_t l = 0; l < capacity.size(); ++l) {
      sites_[l].capacity = capacity[l];
    }
  }

  void submit(std::uint32_t task) {
    const Task& t = (*tasks_)[task];
    SiteState& st = sites_[t.eval_site];
    advance(st);
    st.tasks.push_back(Running{task, std::max(t.duration, 0.0)});
    drain_finished(t.eval_site);
    reschedule(t.eval_site);
  }

  void on_wake(SiteId l, std::uint32_t token) {
    SiteState& site = sites_[l];
    if (site.gen != token) return;  // superseded by a later arrival
    advance(site);
    drain_finished(l);
    reschedule(l);
  }

 private:
  struct Running {
    std::uint32_t task = 0;
    double remaining = 0.0;  ///< nominal seconds left at full speed
  };
  struct SiteState {
    double capacity = 0.0;
    std::vector<Running> tasks;
    double last_update = 0.0;
    double speed = 1.0;  ///< progress rate since last_update
    std::uint32_t gen = 0;
  };

  double current_speed(const SiteState& st) const {
    double demand = 0.0;
    for (const Running& r : st.tasks) demand += (*tasks_)[r.task].ghz;
    if (demand <= st.capacity + kGhzEps || demand <= 0.0) return 1.0;
    return st.capacity / demand;
  }

  /// Progress all running tasks up to now at the previously cached speed.
  void advance(SiteState& st) {
    const double now = q_->now();
    const double dt = now - st.last_update;
    if (dt > 0.0) {
      for (Running& r : st.tasks) r.remaining -= dt * st.speed;
    }
    st.last_update = now;
  }

  void drain_finished(SiteId l) {
    SiteState& st = sites_[l];
    for (std::size_t i = 0; i < st.tasks.size();) {
      if (st.tasks[i].remaining <= kWorkEps) {
        results_->task_processed((*tasks_)[st.tasks[i].task]);
        st.tasks.erase(st.tasks.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  void reschedule(SiteId l) {
    SiteState& st = sites_[l];
    st.speed = current_speed(st);
    const std::uint32_t token = ++st.gen;
    if (st.tasks.empty()) return;
    if (st.speed <= 0.0) return;  // zero capacity: tasks are starved forever
    double min_remaining = st.tasks[0].remaining;
    for (const Running& r : st.tasks) {
      min_remaining = std::min(min_remaining, r.remaining);
    }
    const double eta = std::max(min_remaining, 0.0) / st.speed;
    q_->push_dynamic(EvKind::kComputeDone, q_->now() + eta, l, token);
  }

  TypedEventQueue* q_;
  ResultCollector* results_;
  const std::vector<Task>* tasks_;
  std::vector<SiteState> sites_;
};

}  // namespace

SimReport simulate(const ReplicaPlan& plan, const SimConfig& cfg) {
  EDGEREP_TRACE_SCOPE("sim.simulate");
  const Instance& inst = plan.instance();
  TypedEventQueue queue;
  Rng rng(cfg.seed);

  std::vector<double> capacity(inst.sites().size(), 0.0);
  for (const Site& s : inst.sites()) {
    capacity[s.id] = cfg.capacity_factor * s.available;
  }
  std::vector<QueryState> queries(inst.queries().size());
  std::vector<Task> tasks;
  std::unique_ptr<FlowEngine> flows;
  RouteTable routes;  // row = evaluation site
  if (cfg.transfers == SimConfig::TransferModel::kMaxMinFair) {
    std::vector<double> bandwidth;
    bandwidth.reserve(inst.graph().num_edges());
    for (const Edge& e : inst.graph().edges()) {
      // Per-GB delay is the inverse of bandwidth; zero-delay links are
      // effectively infinite.
      bandwidth.push_back(e.delay > 0.0 ? 1.0 / e.delay : 1e9);
    }
    flows = std::make_unique<FlowEngine>(queue, std::move(bandwidth));
    std::vector<NodeId> site_nodes;
    site_nodes.reserve(inst.sites().size());
    for (const Site& s : inst.sites()) site_nodes.push_back(s.node);
    routes = RouteTable::compute(inst.graph(), site_nodes);
  }
  ResultCollector results(
      queue, queries, flows.get(), [&inst, &routes](SiteId from, QueryId m) {
        std::vector<EdgeId> path;
        routes.edge_path(inst.graph(), from,
                         inst.site(inst.query(m).home).node, path);
        return path;
      });
  const bool sharing =
      cfg.discipline == SimConfig::Discipline::kProcessorSharing;
  ReservationEngine reservation(queue, results, tasks, capacity);
  ProcessorSharingEngine processor_sharing(queue, results, tasks, capacity);

  // Issue times.
  if (cfg.arrivals != SimConfig::Arrivals::kAllAtOnce) {
    check_arrival_params("simulate", cfg.arrival_rate);
  }
  double clock = 0.0;
  for (const Query& q : inst.queries()) {
    switch (cfg.arrivals) {
      case SimConfig::Arrivals::kPoisson:
        clock += rng.exponential(cfg.arrival_rate);
        break;
      case SimConfig::Arrivals::kUniform:
        clock += 1.0 / cfg.arrival_rate;
        break;
      case SimConfig::Arrivals::kAllAtOnce:
        break;
    }
    queries[q.id].issue_time = clock;
  }

  for (const Query& q : inst.queries()) {
    QueryState& qs = queries[q.id];
    // A query runs only when admission control assigned *every* demand
    // (rejected queries are not evaluated on the testbed).
    bool all_assigned = true;
    for (const DatasetDemand& dd : q.demands) {
      if (!plan.assignment(q.id, dd.dataset)) {
        all_assigned = false;
        break;
      }
    }
    if (!all_assigned) continue;
    qs.fully_served = true;
    qs.remaining_results = q.demands.size();
    for (const DatasetDemand& dd : q.demands) {
      const SiteId l = *plan.assignment(q.id, dd.dataset);
      const Dataset& ds = inst.dataset(dd.dataset);
      Task t;
      t.query = q.id;
      t.ghz = resource_demand(inst, q, dd);
      t.duration = ds.volume * inst.site(l).proc_delay;
      t.transfer = dd.selectivity * ds.volume * inst.path_delay(l, q.home);
      t.transfer_size = dd.selectivity * ds.volume;
      t.eval_site = l;
      queue.push_dynamic(EvKind::kArrival, qs.issue_time,
                         static_cast<std::uint32_t>(tasks.size()), 0);
      tasks.push_back(t);
    }
  }

  // The run loop: one switch over the event kinds listed above.
  std::size_t executed = 0;
  {
    EDGEREP_TRACE_SCOPE("sim.run_events");
    SimEvent ev;
    while (executed < cfg.max_events && queue.pop(&ev)) {
      ++executed;
      switch (ev.kind) {
        case EvKind::kArrival:
          if (sharing) {
            processor_sharing.submit(ev.a);
          } else {
            reservation.submit(ev.a);
          }
          break;
        case EvKind::kComputeDone:
          if (sharing) {
            processor_sharing.on_wake(ev.a, ev.b);
          } else {
            reservation.on_finish(ev.a);
          }
          break;
        case EvKind::kTransferDone:
          results.on_transfer_done(ev);
          break;
        default:
          break;
      }
    }
  }
  if (executed >= cfg.max_events) {
    throw std::runtime_error("simulate: event budget exhausted (livelock?)");
  }

  std::vector<QueryOutcome> outcomes;
  outcomes.reserve(inst.queries().size());
  for (const Query& q : inst.queries()) {
    const QueryState& qs = queries[q.id];
    QueryOutcome o;
    o.query = q.id;
    o.issue_time = qs.issue_time;
    o.fully_served = qs.fully_served && qs.completed;
    o.completion_time = qs.completion_time;
    o.met_deadline =
        o.fully_served && !obs::past_due(o.response_delay(), q.deadline);
    outcomes.push_back(o);
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& sims = obs::metrics().counter(
        "edgerep_sim_runs_total", "simulate() calls");
    static obs::Counter& events = obs::metrics().counter(
        "edgerep_sim_events_executed_total",
        "discrete events executed by the testbed simulator");
    static obs::Counter& served = obs::metrics().counter(
        "edgerep_sim_queries_served_total",
        "queries fully served on the testbed");
    static obs::Counter& missed = obs::metrics().counter(
        "edgerep_sim_deadline_misses_total",
        "served queries that missed their QoS deadline");
    static obs::Histogram& response = obs::metrics().histogram(
        "edgerep_sim_response_seconds",
        {0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0},
        "end-to-end response delay of served queries");
    sims.inc();
    events.inc(executed);
    for (const QueryOutcome& o : outcomes) {
      if (!o.fully_served) continue;
      served.inc();
      if (!o.met_deadline) missed.inc();
      response.observe(o.response_delay());
    }
  }
  return build_report(inst, std::move(outcomes));
}

}  // namespace edgerep
