// Causal postmortem over a flight-recorder journal (obs/recorder.h).
//
// The analyzer replays a journal's records — with no access to the
// instance, plan, or OnlineResult — and reconstructs:
//
//   * per-query causal timelines (arrival → admission → transfers →
//     relocations → completion/failure), with each query's deadline slack
//     decomposed into wait / transfer / compute along the critical demand;
//   * the run's deadline-SLO rollup.  The hit ratio and p50/p95/p99 slack
//     (overall and per site) reproduce `OnlineResult::slo` *bit-exactly*:
//     the journal carries the same doubles the kernel folded (deadline,
//     per-flight total and processing delay), completions are re-derived
//     with the identical FP operations, and both sides fold their slacks
//     with obs/slo.h's one rollup (pinned by tests/obs/postmortem_test.cpp);
//   * SLO-breach attribution rolled up by site, dataset, and node role
//     (cloudlet vs data center), keyed to the breached query's critical
//     demand;
//   * flow-backend attribution when the journal came from a
//     `--network=flow` run: kFlowRateChange retirement records supersede
//     the priced completion with the contended actual (the same
//     max-accumulate the kernels apply), and breaches whose critical
//     demand was stretched are additionally bucketed by the bottleneck
//     link that last throttled it;
//   * per-micro-epoch stream statistics (intents, commits, conflicts,
//     requeues, rejects) when the journal came from the streaming plane.
//
// It can also diff two journals to the first divergent record, turning the
// cross-kernel / cross-thread-count determinism contracts from a pass/fail
// hash into a pinpointed debugging tool (`edgerep_cli postmortem --diff`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/recorder.h"
#include "obs/slo.h"

namespace edgerep::obs {

/// "No bottleneck link" sentinel for flow-backend attribution (mirrors the
/// journal's ~0u edge id in kFlowRateChange records).
inline constexpr std::uint32_t kNoLink = 0xffffffffu;

/// One query's reconstructed causal timeline.
struct QueryTimeline {
  std::uint32_t query = 0;
  double arrival = 0.0;
  double deadline = 0.0;
  double completion = 0.0;  ///< max over admission + relocation completions
  std::uint32_t n_demands = 0;
  bool admitted = false;  ///< launched flights and survived the horizon
  bool rejected = false;  ///< refused at admission
  bool failed = false;    ///< admitted, then killed by a fault
  std::uint8_t reject_reason = 0;  ///< audit::AuditReason when rejected
  std::uint32_t relocations = 0;   ///< fault-forced re-seats
  std::uint32_t sheds = 0;         ///< flights killed by faults
  /// Critical demand: the one whose (possibly relocated) flight finished
  /// last and therefore set the query's completion time.
  std::uint32_t critical_demand = 0;
  std::uint32_t critical_site = kNoSite;
  std::uint32_t critical_dataset = 0;
  bool critical_on_dc = false;  ///< critical flight served by a data center
  /// Bottleneck link that last throttled the critical demand's flow
  /// (kNoLink when the run used the delay table, the flow was cap-frozen,
  /// or the critical flight finished exactly at its priced completion).
  std::uint32_t critical_link = kNoLink;
  /// Slack decomposition along the critical demand, seconds:
  ///   wait     — critical flight's start minus arrival (relocation lag)
  ///   transfer — data movement share of the flight (total − processing)
  ///   compute  — processing share
  /// wait + transfer + compute == completion − arrival (up to FP rounding).
  double wait = 0.0;
  double transfer = 0.0;
  double compute = 0.0;
  double slack = 0.0;  ///< deadline − (completion − arrival)
};

/// Breach attribution bucket: admitted queries that missed their deadline,
/// grouped by the critical demand's site / dataset / node role.
struct BreachBucket {
  std::uint32_t key = 0;  ///< site id, dataset id, or role (0=cloudlet,1=DC)
  std::size_t breaches = 0;      ///< breached queries attributed here
  std::size_t served = 0;        ///< admitted queries attributed here
  double worst_slack = 0.0;      ///< most negative slack in the bucket
  double total_overrun = 0.0;    ///< Σ(−slack) over breaches, seconds
};

/// One watchdog alert window reconstructed from kAlert records — the open
/// record carries onset/threshold, the paired resolve record (same seq)
/// closes it.  Reconstruction is bit-exact against the live
/// obs::Watchdog::alerts() snapshot for full-mode journals (pinned by
/// tests/obs/watchdog_test.cpp).
struct AlertWindow {
  double onset = 0.0;
  double resolve = -1.0;          ///< < 0 while still open at journal end
  std::uint8_t kind = 0;          ///< obs::AlertKind value
  std::uint8_t severity = 0;      ///< obs::AlertSeverity value
  std::uint8_t subject_kind = 0;  ///< obs::AlertSubjectKind value
  std::uint32_t subject = 0;      ///< site / dataset / region / link id
  std::uint32_t seq = 0;
  double onset_value = 0.0;
  double threshold = 0.0;
  double resolve_value = 0.0;
  /// Breached admitted queries whose completion time fell inside
  /// [onset, resolve] (open windows extend to the end of the journal).
  std::size_t breaches_in_window = 0;
};

/// Per-micro-epoch stream statistics.
struct EpochStats {
  std::uint32_t epoch = 0;
  double window_end = 0.0;
  std::size_t batch = 0;
  std::size_t intents = 0;
  std::size_t commits = 0;
  std::size_t conflicts = 0;
  std::size_t requeues = 0;
  std::size_t rejects = 0;
};

struct PostmortemReport {
  // --- online section (empty when the journal has no online records) ----
  std::size_t arrivals = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t failed_by_fault = 0;
  std::size_t relocations = 0;
  std::size_t sheds = 0;
  std::size_t fault_events = 0;
  /// Admission rejections by audit::AuditReason value.
  std::vector<std::size_t> rejects_by_reason;
  SloRollup slo;  ///< the run's deadline-SLO rollup, rebuilt
  /// Every arrived query, ascending query id.
  std::vector<QueryTimeline> timelines;
  /// Breach attribution, each ascending by key; empty when no breaches.
  std::vector<BreachBucket> by_site;
  std::vector<BreachBucket> by_dataset;
  std::vector<BreachBucket> by_role;
  /// Flow-backend attribution: breaches whose critical demand was last
  /// throttled by a known bottleneck link, keyed by edge id.  Empty for
  /// delay-table journals.
  std::vector<BreachBucket> by_link;
  // --- flow section (zero when the journal has no flow records) ---------
  std::size_t flow_rate_changes = 0;  ///< max-min re-fill rate transitions
  std::size_t flow_retirements = 0;   ///< flows drained to completion
  /// Retirements that landed past_due (obs/slo.h) of the priced completion
  /// (the contention stretch the SLO gap measures), as the kernel's
  /// late-transfer counter counts them.
  std::size_t flow_stretched = 0;
  // --- watchdog section (empty when the journal has no kAlert records) --
  std::vector<AlertWindow> alerts;  ///< open order (ascending seq)
  std::size_t alerts_opened = 0;
  std::size_t alerts_resolved = 0;
  // --- stream section (empty when the journal has no stream records) ----
  std::vector<EpochStats> epochs;
  std::size_t stream_intents = 0;
  std::size_t stream_commits = 0;
  std::size_t stream_conflicts = 0;
  std::size_t stream_requeues = 0;
  std::size_t stream_rejects = 0;
};

/// Replay a journal into a report.  Ring-mode journals with dropped records
/// analyze best-effort: flight records whose arrival was overwritten are
/// skipped (they cannot be attributed to a deadline).
[[nodiscard]] PostmortemReport analyze_journal(const Journal& journal);

/// Human-readable report.  `top_breaches` caps the worst-slack timeline
/// listing (0 = omit the listing).
void write_report_text(std::ostream& os, const PostmortemReport& report,
                       std::size_t top_breaches = 10);
/// One JSON object mirroring PostmortemReport (timelines capped likewise).
void write_report_json(std::ostream& os, const PostmortemReport& report,
                       std::size_t top_breaches = 10);
/// Just the reconstructed alert timeline with per-window breach counts
/// (the `edgerep_cli postmortem --alerts` view).
void write_alerts_text(std::ostream& os, const PostmortemReport& report);

/// Result of comparing two journals record-by-record.
struct JournalDiff {
  bool identical = false;
  bool header_differs = false;    ///< mode / counts differ
  std::size_t lhs_records = 0;
  std::size_t rhs_records = 0;
  /// Index of the first record whose 40 bytes differ (or the length of the
  /// shorter journal when one is a prefix of the other); npos if none.
  std::size_t first_divergence = 0;
  bool has_divergence = false;
  JournalRecord lhs{};  ///< the diverging records (valid when in range)
  JournalRecord rhs{};
};

[[nodiscard]] JournalDiff diff_journals(const Journal& lhs,
                                        const Journal& rhs);
/// Render a diff with both diverging records decoded.
void write_diff_text(std::ostream& os, const JournalDiff& diff);

}  // namespace edgerep::obs
