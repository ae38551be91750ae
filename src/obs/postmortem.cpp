#include "obs/postmortem.h"

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <map>
#include <ostream>
#include <unordered_map>

#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/watchdog.h"

namespace edgerep::obs {

namespace {

struct QueryState;

/// One demand's latest flight.
struct DemandState {
  QueryState* owner = nullptr;
  JournalRecord flight;  ///< its kTransferStart / kRelocate record
  /// Bottleneck link that last throttled this demand's flow (kNoLink until
  /// a kFlowRateChange rate transition names one; reset per flight).
  std::uint32_t bottleneck = kNoLink;
  double total = 0.0;  ///< start to completion, stretch included
  /// start + total delay; a flow retirement record max-accumulates the
  /// contended actual on top, as run_online does.
  double completion = 0.0;
};

struct QueryState {
  bool arrived = false;
  bool rejected = false;
  bool failed = false;
  bool has_flight = false;
  std::uint8_t reject_reason = 0;
  std::uint32_t n_demands = 0;
  std::uint32_t relocations = 0;
  std::uint32_t sheds = 0;
  double arrival = 0.0;
  double deadline = 0.0;
  /// Running max over every flight record's completion — the same
  /// max-accumulate run_online applies (admission response, then each
  /// relocation), so it is bit-identical to OnlineOutcome::completion_time.
  double completion = 0.0;
  DemandState crit;  ///< the flight that set the running max
  /// run_online's flat (query, demand) slot of demand 0: the demand counts
  /// of the arrivals before this one, summed.
  std::uint64_t demand_off = 0;
};

/// Breach buckets by key, so they flatten in ascending key order.
using BucketMap = std::map<std::uint32_t, BreachBucket>;

std::vector<BreachBucket> flatten_buckets(const BucketMap& buckets) {
  std::vector<BreachBucket> out;
  out.reserve(buckets.size());
  for (const auto& [key, b] : buckets) out.push_back(b);
  return out;
}

}  // namespace

PostmortemReport analyze_journal(const Journal& journal) {
  PostmortemReport report;
  report.rejects_by_reason.assign(kAuditReasonCount, 0);

  // Only arrivals make query rows, and only for an id below the records
  // ever appended (the header's count, or the records present when the
  // journal was built in memory without one).  Any other record naming an
  // id that never arrived is an orphan (a ring journal's dropped prefix, a
  // repair journal, or hostile bytes): it counts toward the totals but
  // touches no per-query state.  So is a second arrival of an id: the
  // first arrival keeps the row.  Tables are sized by the records present,
  // never by a count or id a record claims.
  const std::uint64_t id_bound =
      std::max<std::uint64_t>(journal.header.appended, journal.records.size());
  // One query row per id that arrives, in id order; flights keyed by
  // run_online's flat (query, demand) slot, which kFlowRateChange names.
  std::vector<std::uint32_t> ids;
  std::size_t flights = 0;  // admissions; relocations reuse their slots
  for (const JournalRecord& rec : journal.records) {
    const auto kind = static_cast<RecordKind>(rec.kind);
    if (kind == RecordKind::kArrival && rec.a < id_bound) ids.push_back(rec.a);
    if (kind == RecordKind::kTransferStart) ++flights;
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<QueryState> queries(ids.size());
  const auto row = [&](std::uint32_t id) -> QueryState* {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    return it != ids.end() && *it == id ? &queries[it - ids.begin()]
                                        : nullptr;
  };
  const auto arrived = [&](std::uint32_t id) -> QueryState* {
    QueryState* const qs = row(id);
    return qs != nullptr && qs->arrived ? qs : nullptr;
  };
  std::unordered_map<std::uint64_t, DemandState> demands;
  demands.reserve(flights);
  std::uint64_t next_demand_off = 0;
  // A flight record or flow retirement that finishes later than the
  // query's running max makes that flight the critical one.
  const auto promote = [](QueryState& qs, const DemandState& ds) {
    if (qs.has_flight && !(ds.completion > qs.completion)) return;
    qs.completion = ds.completion;
    qs.crit = ds;
    qs.has_flight = true;
  };
  // A stream record counts toward the run and its epoch.
  const auto count_stream = [&report](std::size_t& total,
                                      std::size_t EpochStats::*in_epoch) {
    ++total;
    if (!report.epochs.empty()) ++(report.epochs.back().*in_epoch);
  };

  for (const JournalRecord& rec : journal.records) {
    switch (static_cast<RecordKind>(rec.kind)) {
      case RecordKind::kArrival: {
        if (rec.a >= id_bound) break;  // hostile id
        QueryState& qs = *row(rec.a);
        if (qs.arrived) break;  // a repeated arrival: the first one stands
        qs.arrived = true;
        qs.arrival = rec.time;
        qs.deadline = rec.v0;
        qs.n_demands = rec.b;
        qs.demand_off = next_demand_off;
        next_demand_off += rec.b;
        ++report.arrivals;
        break;
      }
      case RecordKind::kTransferStart:
      case RecordKind::kRelocate: {
        QueryState* const q = arrived(rec.a);
        if (q == nullptr || rec.arg >= q->n_demands) break;  // orphan
        QueryState& qs = *q;
        if (static_cast<RecordKind>(rec.kind) == RecordKind::kRelocate) {
          ++qs.relocations;
          ++report.relocations;
        }
        // A fresh flight replaces the demand's state (and its flow's).
        DemandState& ds = demands[qs.demand_off + rec.arg];
        ds = {.owner = q,
              .flight = rec,
              .total = rec.v0,
              .completion = rec.time + rec.v0};
        promote(qs, ds);
        break;
      }
      case RecordKind::kComputeDone:
        break;
      case RecordKind::kReject: {
        if (QueryState* const qs = arrived(rec.a)) {
          qs->rejected = true;
          qs->reject_reason = rec.arg;
        }
        if (rec.arg < report.rejects_by_reason.size()) {
          ++report.rejects_by_reason[rec.arg];
        }
        ++report.rejected;
        break;
      }
      case RecordKind::kShed: {
        if (QueryState* const qs = arrived(rec.a)) ++qs->sheds;
        ++report.sheds;
        break;
      }
      case RecordKind::kFail: {
        QueryState* const qs = arrived(rec.a);
        if (qs == nullptr || !qs->failed) ++report.failed_by_fault;
        if (qs != nullptr) qs->failed = true;
        break;
      }
      case RecordKind::kFaultApply:
        ++report.fault_events;
        break;
      case RecordKind::kEpochBegin: {
        EpochStats es;
        es.epoch = rec.b;
        es.batch = rec.a;
        es.window_end = rec.v0;
        report.epochs.push_back(es);
        break;
      }
      case RecordKind::kIntent:
        count_stream(report.stream_intents, &EpochStats::intents);
        break;
      case RecordKind::kCommit:
        count_stream(report.stream_commits, &EpochStats::commits);
        break;
      case RecordKind::kConflict:
        count_stream(report.stream_conflicts, &EpochStats::conflicts);
        break;
      case RecordKind::kRequeue:
        count_stream(report.stream_requeues, &EpochStats::requeues);
        break;
      case RecordKind::kStreamReject:
        count_stream(report.stream_rejects, &EpochStats::rejects);
        break;
      case RecordKind::kFlowRateChange: {
        // rec.a is run_online's flat (query, demand) layout slot.  Arrival
        // records replay queries in id order, so `demands` grows with the
        // exact same prefix sums and the slot indexes it directly — unless
        // a ring journal dropped arrivals, in which case the guard below
        // skips unattributable records (best-effort, like flight orphans).
        const auto it = demands.find(rec.a);
        if (it == demands.end()) break;
        DemandState& ds = it->second;
        if (rec.arg == 0) {
          ++report.flow_rate_changes;
          ds.bottleneck = rec.b;
          break;
        }
        // Retirement: the flow drained at rec.time — the authoritative
        // actual completion.  Max-accumulate onto the priced completion,
        // as run_online's deliver_transfer does.
        ++report.flow_retirements;
        if (past_due(rec.time, ds.completion)) ++report.flow_stretched;
        if (rec.time > ds.completion) ds.completion = rec.time;
        ds.total = ds.completion - ds.flight.time;  // includes the stretch
        promote(*ds.owner, ds);
        break;
      }
      case RecordKind::kAlert: {
        // rec.b pairs a resolve with its open record.  A ring journal may
        // have overwritten the open: the window is then rebuilt from the
        // resolve, whose v1 carries the onset time.
        const bool resolve = (rec.flags & 1u) != 0;
        auto it = report.alerts.end();
        if (resolve) {
          it = std::find_if(
              report.alerts.begin(), report.alerts.end(),
              [&](const AlertWindow& w) { return w.seq == rec.b; });
        }
        if (it == report.alerts.end()) {
          AlertWindow& w = report.alerts.emplace_back();
          w.onset = resolve ? rec.v1 : rec.time;
          w.kind = rec.arg;
          w.severity = static_cast<std::uint8_t>((rec.flags >> 1) & 3u);
          w.subject_kind = static_cast<std::uint8_t>((rec.flags >> 3) & 3u);
          w.subject = rec.a;
          w.seq = rec.b;
          if (!resolve) {
            w.onset_value = rec.v0;
            w.threshold = rec.v1;
          }
          ++report.alerts_opened;
          it = report.alerts.end() - 1;
        }
        if (resolve) {
          it->resolve = rec.time;
          it->resolve_value = rec.v0;
          ++report.alerts_resolved;
        }
        break;
      }
    }
  }

  // SLO rollup: the slacks finalize_online_result collects, replayed from
  // the journal's doubles.
  std::vector<double> query_slacks;
  std::map<std::uint32_t, std::vector<double>> site_slacks;  // sites seen
  report.timelines.reserve(report.arrivals);

  BucketMap by_site;
  BucketMap by_dataset;
  BucketMap by_role;
  BucketMap by_link;

  for (std::size_t r = 0; r < ids.size(); ++r) {
    const QueryState& qs = queries[r];
    if (!qs.arrived) continue;
    const std::uint32_t id = ids[r];
    const bool admitted =
        qs.has_flight && !qs.rejected && !qs.failed;
    QueryTimeline tl;
    tl.query = id;
    tl.arrival = qs.arrival;
    tl.deadline = qs.deadline;
    tl.completion = qs.completion;
    tl.n_demands = qs.n_demands;
    tl.admitted = admitted;
    tl.rejected = qs.rejected;
    tl.failed = qs.failed;
    tl.reject_reason = qs.reject_reason;
    tl.relocations = qs.relocations;
    tl.sheds = qs.sheds;
    const DemandState& crit = qs.crit;
    if (qs.has_flight) {
      tl.critical_demand = crit.flight.arg;
      tl.critical_site = crit.flight.site;
      tl.critical_dataset = crit.flight.b;
      tl.critical_link = crit.bottleneck;
      tl.critical_on_dc = (crit.flight.flags & 1u) != 0;
      tl.compute = crit.flight.v1;
      tl.transfer = crit.total - crit.flight.v1;
      tl.wait = (qs.completion - qs.arrival) - crit.total;
      tl.slack = qs.deadline - (qs.completion - qs.arrival);
    }
    if (admitted) {
      ++report.admitted;
      query_slacks.push_back(qs.deadline - (qs.completion - qs.arrival));
      // Flight records name demands below 256 (their 8-bit arg).
      for (std::uint32_t d = 0; d < std::min(qs.n_demands, 256u); ++d) {
        const auto it = demands.find(qs.demand_off + d);
        if (it == demands.end() || it->second.flight.site == kNoSite) continue;
        const double slack =
            qs.deadline - (it->second.completion - qs.arrival);
        site_slacks[it->second.flight.site].push_back(slack);
      }
      const bool breach = !meets_deadline(tl.slack);
      const auto attribute = [&](BucketMap& by, std::uint32_t key) {
        BreachBucket& acc = by[key];
        acc.key = key;
        ++acc.served;
        if (!breach) return;
        ++acc.breaches;
        acc.worst_slack = std::min(acc.worst_slack, tl.slack);
        acc.total_overrun += -tl.slack;
      };
      attribute(by_site, crit.flight.site);
      attribute(by_dataset, crit.flight.b);
      attribute(by_role, crit.flight.flags & 1u);
      // Link attribution only covers queries whose critical flow was
      // actually throttled by a named link — cap-frozen and table-priced
      // completions have no link to blame.
      if (crit.bottleneck != kNoLink) attribute(by_link, crit.bottleneck);
      // Watchdog attribution: count the breach in every alert window its
      // completion time fell inside (open windows run to journal end).
      if (breach) {
        for (AlertWindow& w : report.alerts) {
          if (qs.completion >= w.onset &&
              (w.resolve < 0.0 || qs.completion <= w.resolve)) {
            ++w.breaches_in_window;
          }
        }
      }
    }
    report.timelines.push_back(tl);
  }

  report.slo = rollup_slo(query_slacks);
  for (auto& [site, slacks] : site_slacks) {
    add_site_slo(report.slo, site, slacks);
  }

  report.by_site = flatten_buckets(by_site);
  report.by_dataset = flatten_buckets(by_dataset);
  report.by_role = flatten_buckets(by_role);
  report.by_link = flatten_buckets(by_link);
  return report;
}

namespace {

std::vector<const QueryTimeline*> worst_breaches(
    const PostmortemReport& report, std::size_t top) {
  std::vector<const QueryTimeline*> breached;
  for (const QueryTimeline& tl : report.timelines) {
    if (tl.admitted && !meets_deadline(tl.slack)) breached.push_back(&tl);
  }
  std::sort(breached.begin(), breached.end(),
            [](const QueryTimeline* a, const QueryTimeline* b) {
              if (a->slack != b->slack) return a->slack < b->slack;
              return a->query < b->query;
            });
  if (breached.size() > top) breached.resize(top);
  return breached;
}

const char* bucket_kind_name(int which) {
  switch (which) {
    case 0:
      return "site";
    case 1:
      return "dataset";
    case 2:
      return "role";
    default:
      return "link";
  }
}

void write_bucket_text(std::ostream& os, const std::vector<BreachBucket>& bs,
                       int which) {
  for (const BreachBucket& b : bs) {
    if (b.breaches == 0) continue;
    os << "  " << bucket_kind_name(which) << ' ';
    if (which == 2) {
      os << (b.key == 1 ? "data_center" : "cloudlet");
    } else {
      os << b.key;
    }
    os << ": " << b.breaches << " breach(es) / " << b.served
       << " served, worst slack " << b.worst_slack << " s, overrun "
       << b.total_overrun << " s\n";
  }
}

}  // namespace

void write_report_text(std::ostream& os, const PostmortemReport& report,
                       std::size_t top_breaches) {
  const auto flags = os.flags();
  const auto precision = os.precision();
  os << std::setprecision(17);
  if (report.arrivals > 0 || report.epochs.empty()) {
    os << "arrivals: " << report.arrivals << "\n"
       << "admitted: " << report.admitted << "\n"
       << "rejected: " << report.rejected << "\n"
       << "failed by fault: " << report.failed_by_fault << "\n"
       << "fault events: " << report.fault_events << ", sheds: "
       << report.sheds << ", relocations: " << report.relocations << "\n";
    os << "slo: hits " << report.slo.deadline_hits << "/"
       << report.slo.admitted_queries << ", hit ratio "
       << report.slo.hit_ratio << "\n"
       << "slack p50/p95/p99: " << report.slo.p50_slack << " "
       << report.slo.p95_slack << " " << report.slo.p99_slack << "\n";
    bool any_reason = false;
    for (std::size_t r = 1; r < report.rejects_by_reason.size(); ++r) {
      if (report.rejects_by_reason[r] == 0) continue;
      os << (any_reason ? " " : "rejections by reason: ")
         << to_string(static_cast<AuditReason>(r)) << "="
         << report.rejects_by_reason[r];
      any_reason = true;
    }
    if (any_reason) os << "\n";
    if (report.flow_rate_changes > 0 || report.flow_retirements > 0) {
      os << "flow backend: " << report.flow_rate_changes
         << " rate change(s), " << report.flow_retirements
         << " retirement(s), " << report.flow_stretched
         << " stretched past the priced completion\n";
    }
    if (report.alerts_opened > 0) write_alerts_text(os, report);
    const std::size_t total_breaches =
        report.slo.admitted_queries - report.slo.deadline_hits;
    if (total_breaches > 0) {
      os << "breach attribution (by critical demand):\n";
      write_bucket_text(os, report.by_site, 0);
      write_bucket_text(os, report.by_dataset, 1);
      write_bucket_text(os, report.by_role, 2);
      write_bucket_text(os, report.by_link, 3);
      const auto worst = worst_breaches(report, top_breaches);
      if (!worst.empty()) {
        os << "worst breaches:\n";
        for (const QueryTimeline* tl : worst) {
          os << "  query " << tl->query << ": slack " << tl->slack
             << " s (deadline " << tl->deadline << ", wait " << tl->wait
             << ", transfer " << tl->transfer << ", compute " << tl->compute
             << ") site " << tl->critical_site << " dataset "
             << tl->critical_dataset << " relocations " << tl->relocations;
          if (tl->critical_link != kNoLink) {
            os << " bottleneck link " << tl->critical_link;
          }
          os << "\n";
        }
      }
    }
  }
  if (!report.epochs.empty() || report.stream_intents > 0) {
    os << "stream: " << report.epochs.size() << " epoch(s), "
       << report.stream_intents << " intents, " << report.stream_commits
       << " commits, " << report.stream_conflicts << " conflicts, "
       << report.stream_requeues << " requeues, " << report.stream_rejects
       << " rejects\n";
    for (const EpochStats& es : report.epochs) {
      os << "  epoch " << es.epoch << ": batch " << es.batch << ", intents "
         << es.intents << ", commits " << es.commits << ", conflicts "
         << es.conflicts << ", requeues " << es.requeues << ", rejects "
         << es.rejects << "\n";
    }
  }
  os.flags(flags);
  os.precision(precision);
}

void write_alerts_text(std::ostream& os, const PostmortemReport& report) {
  const auto flags = os.flags();
  const auto precision = os.precision();
  os << std::setprecision(17);
  os << "alerts: " << report.alerts_opened << " opened, "
     << report.alerts_resolved << " resolved, "
     << report.alerts_opened - report.alerts_resolved << " still open\n";
  for (const AlertWindow& w : report.alerts) {
    os << "  [" << w.seq << "] "
       << to_string(static_cast<AlertKind>(w.kind)) << " "
       << to_string(static_cast<AlertSubjectKind>(w.subject_kind)) << " "
       << w.subject << " "
       << to_string(static_cast<AlertSeverity>(w.severity)) << " onset "
       << w.onset << " resolve ";
    if (w.resolve < 0.0) {
      os << "-";
    } else {
      os << w.resolve;
    }
    os << " value " << w.onset_value << "/" << w.threshold << " breaches "
       << w.breaches_in_window << "\n";
  }
  os.flags(flags);
  os.precision(precision);
}

namespace {

void write_bucket_json(std::ostream& os, const std::vector<BreachBucket>& bs,
                       const char* key_name) {
  os << "[";
  for (std::size_t i = 0; i < bs.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"" << key_name << "\":" << bs[i].key
       << ",\"breaches\":" << bs[i].breaches << ",\"served\":" << bs[i].served
       << ",\"worst_slack\":";
    write_json_double(os, bs[i].worst_slack);
    os << ",\"total_overrun\":";
    write_json_double(os, bs[i].total_overrun);
    os << "}";
  }
  os << "]";
}

}  // namespace

void write_report_json(std::ostream& os, const PostmortemReport& report,
                       std::size_t top_breaches) {
  os << "{\"arrivals\":" << report.arrivals
     << ",\"admitted\":" << report.admitted
     << ",\"rejected\":" << report.rejected
     << ",\"failed_by_fault\":" << report.failed_by_fault
     << ",\"fault_events\":" << report.fault_events
     << ",\"sheds\":" << report.sheds
     << ",\"relocations\":" << report.relocations;
  os << ",\"rejects_by_reason\":{";
  bool first = true;
  for (std::size_t r = 0; r < report.rejects_by_reason.size(); ++r) {
    if (report.rejects_by_reason[r] == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "\"" << to_string(static_cast<AuditReason>(r))
       << "\":" << report.rejects_by_reason[r];
  }
  os << "}";
  os << ",\"slo\":{\"admitted_queries\":" << report.slo.admitted_queries
     << ",\"deadline_hits\":" << report.slo.deadline_hits
     << ",\"hit_ratio\":";
  write_json_double(os, report.slo.hit_ratio);
  os << ",\"p50_slack\":";
  write_json_double(os, report.slo.p50_slack);
  os << ",\"p95_slack\":";
  write_json_double(os, report.slo.p95_slack);
  os << ",\"p99_slack\":";
  write_json_double(os, report.slo.p99_slack);
  os << ",\"per_site\":[";
  for (std::size_t i = 0; i < report.slo.per_site.size(); ++i) {
    const SiteSlo& row = report.slo.per_site[i];
    if (i > 0) os << ",";
    os << "{\"site\":" << row.site << ",\"demands\":" << row.demands
       << ",\"deadline_hits\":" << row.deadline_hits << ",\"p50_slack\":";
    write_json_double(os, row.p50_slack);
    os << ",\"p95_slack\":";
    write_json_double(os, row.p95_slack);
    os << ",\"p99_slack\":";
    write_json_double(os, row.p99_slack);
    os << "}";
  }
  os << "]}";
  os << ",\"flow\":{\"rate_changes\":" << report.flow_rate_changes
     << ",\"retirements\":" << report.flow_retirements
     << ",\"stretched\":" << report.flow_stretched << "}";
  os << ",\"breaches\":{\"by_site\":";
  write_bucket_json(os, report.by_site, "site");
  os << ",\"by_dataset\":";
  write_bucket_json(os, report.by_dataset, "dataset");
  os << ",\"by_role\":";
  write_bucket_json(os, report.by_role, "role");
  os << ",\"by_link\":";
  write_bucket_json(os, report.by_link, "link");
  os << ",\"worst\":[";
  const auto worst = worst_breaches(report, top_breaches);
  for (std::size_t i = 0; i < worst.size(); ++i) {
    const QueryTimeline* tl = worst[i];
    if (i > 0) os << ",";
    os << "{\"query\":" << tl->query << ",\"slack\":";
    write_json_double(os, tl->slack);
    os << ",\"deadline\":";
    write_json_double(os, tl->deadline);
    os << ",\"wait\":";
    write_json_double(os, tl->wait);
    os << ",\"transfer\":";
    write_json_double(os, tl->transfer);
    os << ",\"compute\":";
    write_json_double(os, tl->compute);
    os << ",\"site\":" << tl->critical_site
       << ",\"dataset\":" << tl->critical_dataset
       << ",\"relocations\":" << tl->relocations;
    if (tl->critical_link != kNoLink) {
      os << ",\"bottleneck_link\":" << tl->critical_link;
    }
    os << "}";
  }
  os << "]}";
  os << ",\"alerts\":{\"opened\":" << report.alerts_opened
     << ",\"resolved\":" << report.alerts_resolved << ",\"windows\":[";
  for (std::size_t i = 0; i < report.alerts.size(); ++i) {
    const AlertWindow& w = report.alerts[i];
    if (i > 0) os << ",";
    os << "{\"seq\":" << w.seq << ",\"kind\":\""
       << to_string(static_cast<AlertKind>(w.kind)) << "\",\"severity\":\""
       << to_string(static_cast<AlertSeverity>(w.severity))
       << "\",\"subject_kind\":\""
       << to_string(static_cast<AlertSubjectKind>(w.subject_kind))
       << "\",\"subject\":" << w.subject << ",\"onset\":";
    write_json_double(os, w.onset);
    os << ",\"resolve\":";
    if (w.resolve < 0.0) {
      os << "null";
    } else {
      write_json_double(os, w.resolve);
    }
    os << ",\"onset_value\":";
    write_json_double(os, w.onset_value);
    os << ",\"threshold\":";
    write_json_double(os, w.threshold);
    os << ",\"resolve_value\":";
    write_json_double(os, w.resolve_value);
    os << ",\"breaches_in_window\":" << w.breaches_in_window << "}";
  }
  os << "]}";
  os << ",\"stream\":{\"intents\":" << report.stream_intents
     << ",\"commits\":" << report.stream_commits
     << ",\"conflicts\":" << report.stream_conflicts
     << ",\"requeues\":" << report.stream_requeues
     << ",\"rejects\":" << report.stream_rejects << ",\"epochs\":[";
  for (std::size_t i = 0; i < report.epochs.size(); ++i) {
    const EpochStats& es = report.epochs[i];
    if (i > 0) os << ",";
    os << "{\"epoch\":" << es.epoch << ",\"window_end\":";
    write_json_double(os, es.window_end);
    os << ",\"batch\":" << es.batch << ",\"intents\":" << es.intents
       << ",\"commits\":" << es.commits << ",\"conflicts\":" << es.conflicts
       << ",\"requeues\":" << es.requeues << ",\"rejects\":" << es.rejects
       << "}";
  }
  os << "]}}";
  os << "\n";
}

JournalDiff diff_journals(const Journal& lhs, const Journal& rhs) {
  JournalDiff diff;
  diff.lhs_records = lhs.records.size();
  diff.rhs_records = rhs.records.size();
  diff.header_differs = lhs.header.mode != rhs.header.mode ||
                        lhs.header.appended != rhs.header.appended ||
                        lhs.header.retained != rhs.header.retained ||
                        lhs.header.dropped != rhs.header.dropped;
  const std::size_t common = std::min(lhs.records.size(), rhs.records.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (std::memcmp(&lhs.records[i], &rhs.records[i],
                    sizeof(JournalRecord)) != 0) {
      diff.has_divergence = true;
      diff.first_divergence = i;
      diff.lhs = lhs.records[i];
      diff.rhs = rhs.records[i];
      return diff;
    }
  }
  if (lhs.records.size() != rhs.records.size()) {
    diff.has_divergence = true;
    diff.first_divergence = common;
    if (common < lhs.records.size()) diff.lhs = lhs.records[common];
    if (common < rhs.records.size()) diff.rhs = rhs.records[common];
    return diff;
  }
  diff.identical = !diff.header_differs;
  return diff;
}

namespace {

void write_record_text(std::ostream& os, const JournalRecord& rec) {
  os << to_string(static_cast<RecordKind>(rec.kind)) << " t=" << rec.time
     << " a=" << rec.a << " b=" << rec.b << " site=";
  if (rec.site == kNoSite) {
    os << "-";
  } else {
    os << rec.site;
  }
  os << " arg=" << static_cast<unsigned>(rec.arg) << " flags=" << rec.flags
     << " v0=" << rec.v0 << " v1=" << rec.v1;
}

}  // namespace

void write_diff_text(std::ostream& os, const JournalDiff& diff) {
  const auto precision = os.precision();
  os << std::setprecision(17);
  if (diff.identical) {
    os << "journals identical: " << diff.lhs_records << " record(s)\n";
    os.precision(precision);
    return;
  }
  if (diff.header_differs) {
    os << "headers differ (" << diff.lhs_records << " vs " << diff.rhs_records
       << " records)\n";
  }
  if (diff.has_divergence) {
    os << "first divergence at record " << diff.first_divergence << "\n";
    if (diff.first_divergence < diff.lhs_records) {
      os << "  lhs: ";
      write_record_text(os, diff.lhs);
      os << "\n";
    } else {
      os << "  lhs: <end of journal>\n";
    }
    if (diff.first_divergence < diff.rhs_records) {
      os << "  rhs: ";
      write_record_text(os, diff.rhs);
      os << "\n";
    } else {
      os << "  rhs: <end of journal>\n";
    }
  }
  os.precision(precision);
}

}  // namespace edgerep::obs
