// Golden artifacts: the frozen determinism contract of the event core and
// of the admission paths' plans.
// tests/golden/online_hashes.txt pins one `name value...` line per case;
// the *.journal files beside it are byte-compared.  A mismatch prints the
// actual line, so a deliberate re-baseline is a copy-paste, never a switch.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cloud/plan.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "sim/metrics.h"
#include "sim/online.h"

namespace edgerep::testing {

inline std::string golden_path(const std::string& file) {
  return std::string(EDGEREP_GOLDEN_DIR) + "/" + file;
}

/// The pinned value of `name` in online_hashes.txt ("" when absent).
inline std::string golden_value(const std::string& name) {
  static const std::map<std::string, std::string> table = [] {
    std::map<std::string, std::string> t;
    std::ifstream in(golden_path("online_hashes.txt"));
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      const auto sp = line.find(' ');
      if (sp == std::string::npos) continue;
      t[line.substr(0, sp)] = line.substr(sp + 1);
    }
    return t;
  }();
  const auto it = table.find(name);
  return it == table.end() ? std::string() : it->second;
}

inline void expect_golden(const std::string& name, const std::string& actual) {
  EXPECT_EQ(golden_value(name), actual)
      << "golden mismatch; actual line:\n" << name << " " << actual;
}

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

inline std::string bits(double v) {
  return hex64(std::bit_cast<std::uint64_t>(v));
}

/// FNV-1a over raw bytes.
inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

inline std::string online_fp(const OnlineResult& r) {
  return hex64(online_result_hash(r));
}

/// The flow-gap block online_result_hash leaves out.
inline std::string gap_fp(const FlowGapStats& g) {
  std::ostringstream os;
  os << "gap=" << g.flows_routed << ":" << g.rate_changes << ":"
     << g.predicted_hits << ":" << g.queries_compared << ":" << g.actual_hits
     << ":" << g.gap_breaches << ":" << bits(g.max_stretch) << ":"
     << bits(g.mean_stretch);
  return os.str();
}

/// A flow-backend result: the hash plus its gap block.
inline std::string flow_fp(const OnlineResult& r) {
  return online_fp(r) + " " + gap_fp(r.flow_gap);
}

/// The watchdog rollup online_result_hash leaves out.
inline std::string watchdog_fp(const obs::WatchdogStats& w) {
  std::ostringstream os;
  os << "wd=" << w.opened << ":" << w.resolved << ":" << w.open_at_end << ":"
     << static_cast<unsigned>(w.worst_severity);
  for (const auto k : w.opened_by_kind) os << ":" << k;
  return os.str();
}

/// Every SimReport field, raw double bits.
inline std::string sim_fp(const SimReport& r) {
  std::ostringstream os;
  for (const QueryOutcome& o : r.outcomes) {
    os << o.query << ' ' << bits(o.issue_time) << ' '
       << bits(o.completion_time) << ' ' << o.fully_served << o.met_deadline
       << '\n';
  }
  os << r.total_queries << ' ' << r.served_queries << ' '
     << r.admitted_queries << ' ' << bits(r.admitted_volume) << ' '
     << bits(r.throughput) << ' ' << bits(r.mean_response) << ' '
     << bits(r.p95_response) << ' ' << bits(r.max_response) << ' '
     << bits(r.makespan);
  return hex64(fnv1a(os.str())) + " served=" +
         std::to_string(r.served_queries) + " admitted=" +
         std::to_string(r.admitted_queries);
}

/// Every replica list in list order, every assignment (queries in id order,
/// demands in demand order, -1 when unassigned) and the dual objective's
/// raw bits, FNV-1a; then the replica and assigned-demand counts.
inline std::string plan_fp(const ReplicaPlan& plan,
                           double dual_objective = 0.0) {
  const Instance& inst = plan.instance();
  std::ostringstream os;
  for (const Dataset& d : inst.datasets()) {
    os << 'r' << d.id;
    for (const SiteId s : plan.replica_sites(d.id)) os << ' ' << s;
    os << '\n';
  }
  std::size_t assigned = 0;
  for (const Query& q : inst.queries()) {
    os << 'a' << q.id;
    for (const DatasetDemand& dd : q.demands) {
      const auto site = plan.assignment(q.id, dd.dataset);
      os << ' ' << (site ? static_cast<std::int64_t>(*site) : -1);
      assigned += site ? 1 : 0;
    }
    os << '\n';
  }
  os << bits(dual_objective);
  return "plan=" + hex64(fnv1a(os.str())) + ":" +
         std::to_string(plan.total_replicas()) + ":" + std::to_string(assigned);
}

/// Several runs folded into one line: FNV-1a over the runs' fingerprints,
/// one per line in run order, then the run count.
inline std::string runs_fp(const std::vector<std::string>& fps) {
  std::string joined;
  for (const std::string& fp : fps) joined += fp + '\n';
  return "runs=" + hex64(fnv1a(joined)) + ":" + std::to_string(fps.size());
}

/// Every AuditEntry field in log order (doubles as raw bits), FNV-1a.
inline std::string audit_fp(const std::vector<obs::AuditEntry>& entries) {
  std::ostringstream os;
  for (const obs::AuditEntry& e : entries) {
    os << e.algorithm << ' ' << e.query << ' ' << e.demand << ' '
       << e.dataset << ' ' << e.admitted << ' '
       << static_cast<unsigned>(e.reason) << ' ' << e.site << ' '
       << e.placed_replica << ' ' << bits(e.theta_term) << ' '
       << bits(e.capacity_term) << ' ' << bits(e.eta_term) << ' '
       << bits(e.mu_term) << ' ' << bits(e.total_price) << '\n';
  }
  return "audit=" + hex64(fnv1a(os.str())) + ":" +
         std::to_string(entries.size());
}

/// The sim-clock track (pid 2) of the tracer in record order, FNV-1a.
inline std::string sim_trace_fp(const std::vector<obs::TraceEvent>& events) {
  std::ostringstream os;
  std::size_t n = 0;
  for (const obs::TraceEvent& ev : events) {
    if (ev.pid != 2) continue;
    os << ev.phase << ' ' << ev.name << ' ' << ev.id << ' ' << ev.start_ns
       << ' ' << ev.dur_ns << '\n';
    ++n;
  }
  return "trace=" + hex64(fnv1a(os.str())) + ":" + std::to_string(n);
}

/// Every registered counter's value, read from the registry's JSON form.
inline std::map<std::string, std::uint64_t> counter_values() {
  std::ostringstream os;
  obs::metrics().write_json(os);
  const std::string json = os.str();
  std::map<std::string, std::uint64_t> out;
  const std::size_t begin = json.find("\"counters\": {");
  const std::size_t end = json.find('}', begin);
  std::size_t at = json.find('"', begin + 12);
  while (at < end) {
    const std::size_t close = json.find('"', at + 1);
    const std::string name = json.substr(at + 1, close - at - 1);
    out[name] = std::stoull(json.substr(json.find(':', close) + 1));
    at = json.find('"', close + 1);
  }
  return out;
}

/// `name=delta` (comma-separated, name order) for every counter starting
/// with one of `prefixes` that moved between the two snapshots.  Counters
/// that did not move are left out: whether they are registered at all
/// depends on what ran earlier in the process.
inline std::string counter_deltas(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after,
    const std::vector<std::string>& prefixes) {
  std::string out = "counters=";
  bool first = true;
  for (const auto& [name, value] : after) {
    bool match = false;
    for (const std::string& p : prefixes) match |= name.rfind(p, 0) == 0;
    const auto it = before.find(name);
    const std::uint64_t delta = value - (it == before.end() ? 0 : it->second);
    if (!match || delta == 0) continue;
    out += (first ? "" : ",") + name + "=" + std::to_string(delta);
    first = false;
  }
  return out;
}

/// Byte-compare `actual` against the golden file `file`.  A mismatch
/// reports the first divergent offset and writes the actual bytes to
/// `<file>.actual` in the working directory for `postmortem --diff`.
inline void expect_golden_bytes(const std::string& file,
                                const std::string& actual) {
  std::ifstream in(golden_path(file), std::ios::binary);
  const std::string golden{std::istreambuf_iterator<char>(in), {}};
  if (golden == actual) return;
  std::size_t at = 0;
  while (at < golden.size() && at < actual.size() &&
         golden[at] == actual[at]) {
    ++at;
  }
  std::ofstream(file + ".actual", std::ios::binary) << actual;
  ADD_FAILURE() << "golden " << file << " differs at byte " << at
                << " (golden " << golden.size() << " bytes, actual "
                << actual.size() << "); actual bytes written to " << file
                << ".actual";
}

}  // namespace edgerep::testing
