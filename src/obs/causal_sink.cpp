#include "obs/causal_sink.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/watchdog.h"

namespace edgerep::obs {

namespace {

struct CounterSpec {
  RecordKind kind;
  const char* name;
  const char* help;
};

constexpr CounterSpec kOnlineCounters[] = {
    {RecordKind::kArrival, "edgerep_online_arrivals_total",
     "query arrivals seen"},
    {RecordKind::kReject, "edgerep_online_queries_rejected_total",
     "queries rejected on arrival"},
    {RecordKind::kFail, "edgerep_online_queries_failed_by_fault_total",
     "admitted queries killed mid-flight by an injected fault"},
    {RecordKind::kRelocate, "edgerep_online_demands_relocated_total",
     "displaced demands re-seated on surviving sites"},
    {RecordKind::kFaultApply, "edgerep_online_fault_events_total",
     "fault-trace events applied by the online simulator"}};

constexpr CounterSpec kStreamCounters[] = {
    {RecordKind::kEpochBegin, "edgerep_stream_epochs_total",
     "micro-epochs processed"},
    {RecordKind::kIntent, "edgerep_stream_intents_total",
     "phase-1 admission intents reaching reconciliation"},
    {RecordKind::kCommit, "edgerep_stream_queries_admitted_total",
     "queries admitted by the streaming plane"},
    {RecordKind::kConflict, "edgerep_stream_reconcile_conflicts_total",
     "intents refused during epoch reconciliation"},
    {RecordKind::kRequeue, "edgerep_stream_requeues_total",
     "conflict losers re-queued into a later epoch"},
    {RecordKind::kStreamReject, "edgerep_stream_queries_rejected_total",
     "queries rejected by the streaming plane"}};

constexpr const char* kProducerNames[] = {"online", "stream", "repair"};
constexpr std::uint32_t kNoSpan = 0xffffffffu;

/// Async-span ids: a query's span and its flights' spans share the query
/// prefix, so a trace viewer groups them on one row.
std::uint64_t query_span_id(std::uint32_t query) {
  return static_cast<std::uint64_t>(query) << 20;
}
std::uint64_t flight_span_id(std::uint32_t query, std::uint32_t demand,
                             unsigned kind) {
  return query_span_id(query) |
         (static_cast<std::uint64_t>(demand + 1) << 2) | kind;
}

std::uint64_t sim_ns(double seconds) {
  return seconds <= 0.0
             ? 0
             : static_cast<std::uint64_t>(std::llround(seconds * 1e9));
}

}  // namespace

CausalSink::CausalSink(Producer producer)
    : producer_(kProducerNames[static_cast<int>(producer)]) {
  const bool online = producer == Producer::kOnline;
  if (recorder_enabled()) rec_ = &recorder();
  if (producer != Producer::kRepair && watchdog_enabled()) {
    wd_ = &watchdog();
    wd_->begin_run();
  }
  audit_on_ = audit_enabled();
  trace_on_ = online && trace_enabled();
  const bool counting = metrics_enabled() && producer != Producer::kRepair;
  if (counting) {
    for (const CounterSpec& c :
         online ? std::span<const CounterSpec>(kOnlineCounters)
                : std::span<const CounterSpec>(kStreamCounters)) {
      counters_[static_cast<std::size_t>(c.kind)] =
          &metrics().counter(c.name, c.help);
    }
  }
  if (counting && online) {
    admitted_ = &metrics().counter("edgerep_online_queries_admitted_total",
                                   "queries admitted on arrival");
  }
  on_ = rec_ != nullptr || wd_ != nullptr || audit_on_ || trace_on_ ||
        counting;
}

void CausalSink::emit(RecordKind kind, JournalRecord rec,
                      const CausalSide& side) {
  rec.kind = static_cast<std::uint8_t>(kind);
  if (rec_ != nullptr) rec_->append(rec);
  if (wd_ != nullptr) watch(rec, side);
  if (audit_on_) audit(rec, side);
  if (trace_on_) trace(rec, side);
  if (Counter* c = counters_[rec.kind]) c->inc();
}

void CausalSink::admitted(double t, double slack) {
  if (admitted_ != nullptr) admitted_->inc();
  if (wd_ == nullptr) return;
  wd_->on_completion(t, slack, false);
  drain_alerts();
}

void CausalSink::site_util(double t, std::uint32_t site, double util) {
  if (wd_ == nullptr) return;
  wd_->on_site_util(t, site, util);
  drain_alerts();
}

void CausalSink::delivered(double t, std::uint32_t slot, double stretch,
                           double slack) {
  if (wd_ == nullptr) return;
  wd_->on_flow_retire(
      t, slot < links_.size() ? links_[slot] : kNoAlertLink, stretch);
  wd_->on_completion(t, slack, false);
  drain_alerts();
}

void CausalSink::watch(const JournalRecord& r, const CausalSide& side) {
  switch (static_cast<RecordKind>(r.kind)) {
    case RecordKind::kArrival:
      wd_->on_arrival(r.time, 0);
      [[fallthrough]];
    case RecordKind::kCommit:
      for (const std::uint32_t n : side.datasets) wd_->on_demand(r.time, n);
      break;
    case RecordKind::kRelocate:
      wd_->on_site_util(r.time, r.site, side.util);
      wd_->on_completion(r.time, side.slack, false);
      break;
    case RecordKind::kComputeDone:
      wd_->on_site_util(r.time, r.site, side.util);
      break;
    case RecordKind::kFail:
      wd_->on_completion(r.time, -1.0, true);
      break;
    case RecordKind::kEpochBegin:
      wd_->on_stream_epoch(r.time, side.batches, side.window);
      break;
    case RecordKind::kFlowRateChange:
      // A rate transition names the link to blame when the flow delivers.
      if (r.arg == 0) {
        if (r.a >= links_.size()) links_.resize(r.a + 1, kNoAlertLink);
        links_[r.a] = r.b;
      }
      return;
    default:
      return;
  }
  drain_alerts();
}

void CausalSink::drain_alerts() {
  for (const JournalRecord& alert : wd_->transitions()) {
    emit(RecordKind::kAlert, alert);
  }
  wd_->clear_transitions();
}

void CausalSink::audit(const JournalRecord& r, const CausalSide& side) {
  const auto log = [&](std::uint32_t demand, std::uint32_t dataset,
                       AuditReason reason, std::uint32_t site = kNoSite,
                       bool placed_replica = false) {
    audit_.push_back({.query = r.a,
                      .demand = demand,
                      .dataset = dataset,
                      .admitted = reason == AuditReason::kAdmitted,
                      .reason = reason,
                      .site = site,
                      .placed_replica = placed_replica});
  };
  const auto dataset = [&](std::uint32_t j) {  // 0 for a query without any
    return j < side.datasets.size() ? side.datasets[j] : 0;
  };
  switch (static_cast<RecordKind>(r.kind)) {
    case RecordKind::kTransferStart:
      log(r.arg, r.b, AuditReason::kAdmitted, r.site, side.placed_replica);
      break;
    case RecordKind::kReject:
      // The demands placed before the failing one (index b) roll back.
      for (std::uint32_t j = 0; j < side.rolled_back.size(); ++j) {
        log(j, dataset(j), AuditReason::kAtomicRollback, side.rolled_back[j]);
      }
      log(r.b, dataset(r.b), static_cast<AuditReason>(r.arg));
      break;
    case RecordKind::kFail:
      log(0, dataset(0), AuditReason::kFaultEvicted);
      break;
    case RecordKind::kShed:  // repair evictions; online sheds re-seat
      if (r.flags == 2) log(r.arg, r.b, AuditReason::kFaultEvicted, r.site);
      break;
    case RecordKind::kConflict:
      conflict_site_ = r.site;
      break;
    case RecordKind::kRequeue:
      log(0, dataset(0), AuditReason::kReconcileConflict, conflict_site_);
      break;
    default:
      break;
  }
}

void CausalSink::trace(const JournalRecord& r, const CausalSide& side) {
  // Flights are keyed by (query, demand), the demand being the record's
  // 8-bit arg.
  const auto key = [&](std::uint32_t demand) {
    return (static_cast<std::uint64_t>(r.a) << 8) |
           static_cast<std::uint8_t>(demand);
  };
  const auto query_span = [&]() -> Span* {
    const bool has = r.a < query_span_.size() && query_span_[r.a] != kNoSpan;
    return has ? &spans_[query_span_[r.a]] : nullptr;
  };
  // A flight's transfer span, then its compute span (v0 = total delay,
  // v1 = processing share); the query's span runs to its completion.
  const auto launch = [&] {
    const double t_mid = r.time + std::max(0.0, r.v0 - r.v1);
    live_flights_[key(r.arg)] = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(
        {"online.transfer", flight_span_id(r.a, r.arg, 1), r.time, t_mid});
    spans_.push_back({"online.compute", flight_span_id(r.a, r.arg, 2), t_mid,
                      r.time + r.v0});
    if (Span* q = query_span()) q->t1 = std::max(q->t1, r.time + r.v0);
  };
  const auto truncate = [&](std::uint32_t demand) {
    const auto it = live_flights_.find(key(demand));
    if (it == live_flights_.end()) return;
    for (const std::uint32_t si : {it->second, it->second + 1}) {
      spans_[si].t0 = std::min(spans_[si].t0, r.time);
      spans_[si].t1 = std::min(spans_[si].t1, r.time);
    }
    live_flights_.erase(it);
  };
  switch (static_cast<RecordKind>(r.kind)) {
    case RecordKind::kTransferStart:
      if (r.a >= query_span_.size()) query_span_.resize(r.a + 1, kNoSpan);
      if (query_span_[r.a] == kNoSpan) {
        query_span_[r.a] = static_cast<std::uint32_t>(spans_.size());
        spans_.push_back({"online.query", query_span_id(r.a), r.time, r.time});
      }
      launch();
      break;
    case RecordKind::kRelocate:
      launch();
      instants_.push_back(
          {"online.relocate", flight_span_id(r.a, r.arg, 0), r.time, 0.0});
      break;
    case RecordKind::kComputeDone:
      live_flights_.erase(key(r.arg));
      break;
    case RecordKind::kShed:
      truncate(r.arg);
      break;
    case RecordKind::kFail:
      for (std::uint32_t d = 0; d < side.datasets.size(); ++d) truncate(d);
      if (Span* q = query_span()) q->t1 = std::min(q->t1, r.time);
      instants_.push_back({"online.crash", query_span_id(r.a), r.time, 0.0});
      break;
    default:
      break;
  }
}

void CausalSink::finish() {
  for (AuditEntry& e : audit_) e.algorithm = producer_;
  audit_log().record_batch(audit_);
  // Async 'b'/'e' pairs (and 'n' instants) on pid 2, the sim-clock track,
  // next to the wall-clock phase spans on pid 1.
  Tracer& tr = tracer();
  for (const Span& sp : spans_) {
    if (sp.t1 <= sp.t0) continue;  // killed before it started
    tr.record_async('b', sp.name, sp.id, sim_ns(sp.t0));
    tr.record_async('e', sp.name, sp.id, sim_ns(sp.t1));
  }
  for (const Span& in : instants_) {
    tr.record_async('n', in.name, in.id, sim_ns(in.t0));
  }
}

}  // namespace edgerep::obs
