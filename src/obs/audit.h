// Admission-decision audit log.
//
// The admission engines (core/appro.cpp, core/repair.cpp,
// baselines/greedy.cpp) record one entry per (query, demand) decision when
// obs::audit_enabled(): admitted entries carry the winning site and its dual
// price breakdown (θ, capacity, η, μ terms); rejected entries carry the
// binding reason.  Demands that were admitted and then undone by an
// atomic-query abort are re-recorded with reason kAtomicRollback (their
// site/price fields keep the original values for forensics).
//
// Reason classification is one deterministic precedence over the
// constraints the engine checked (RejectionClassifier below):
//   1. kNoDeadlineFeasibleSite — no up site satisfies the QoS deadline;
//   2. kReplicaBudgetSpent     — some up, deadline-feasible site has room but
//                                no replica, and none can be placed (the
//                                budget K is spent, or reactive placement is
//                                off);
//   3. kCapacityExhausted      — otherwise: every up, deadline-feasible site
//                                lacks residual capacity.
// The classification pass runs only for a failed demand whose reason is
// consumed; the hot admission scan is untouched, so enabling the audit never
// changes a plan.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "obs/obs.h"

namespace edgerep::obs {

enum class AuditReason : std::uint8_t {
  kAdmitted = 0,
  kNoDeadlineFeasibleSite,
  kCapacityExhausted,
  kReplicaBudgetSpent,
  kAtomicRollback,
  /// The demand was admitted but its site (or path, or capacity headroom)
  /// was lost to an injected fault; recorded by the repair engine when it
  /// evicts the assignment (core/repair.cpp).
  kFaultEvicted,
  /// A shard's phase-1 intent lost the serial reconciliation race — another
  /// shard committed the capacity or replica budget first — and the query
  /// was re-queued into a later epoch (stream/stream_engine.cpp).
  kReconcileConflict,
};
inline constexpr std::size_t kAuditReasonCount = 7;

[[nodiscard]] const char* to_string(AuditReason r) noexcept;

/// The rejection rule above, written once.  Its four callers are appro's
/// and repair's admission steps (core/appro.cpp, core/repair.cpp), Greedy
/// (baselines/greedy.cpp) and run_online (sim/online.cpp), which puts the
/// reason on its kReject journal records.  After a demand fails, the caller
/// feeds it each up, deadline-feasible site it already enumerates, then
/// reads reason().  A caller that pays for each deadline test (run_online)
/// tests only the sites for which could_change() holds, and stops once
/// settled().
class RejectionClassifier {
 public:
  /// `can_place_replica`: a fresh replica of the demand's dataset could
  /// still be placed.
  explicit RejectionClassifier(bool can_place_replica) noexcept
      : can_place_replica_(can_place_replica) {}

  /// One up, deadline-feasible site: whether the demand fits its residual
  /// capacity, and whether it holds a replica of the demand's dataset.
  void site(bool fits, bool has_replica) noexcept {
    any_site_ = true;
    if (could_bind_budget(fits, has_replica)) budget_bound_ = true;
  }

  /// Would feeding this site, were it deadline-feasible, change reason()?
  [[nodiscard]] bool could_change(bool fits, bool has_replica) const noexcept {
    return !any_site_ ||
           (!budget_bound_ && could_bind_budget(fits, has_replica));
  }

  /// No further site can change reason().
  [[nodiscard]] bool settled() const noexcept {
    return budget_bound_ || (any_site_ && can_place_replica_);
  }

  [[nodiscard]] AuditReason reason() const noexcept {
    if (!any_site_) return AuditReason::kNoDeadlineFeasibleSite;
    return budget_bound_ ? AuditReason::kReplicaBudgetSpent
                         : AuditReason::kCapacityExhausted;
  }

 private:
  [[nodiscard]] bool could_bind_budget(bool fits,
                                       bool has_replica) const noexcept {
    return fits && !has_replica && !can_place_replica_;
  }

  bool can_place_replica_;
  bool any_site_ = false;
  bool budget_bound_ = false;
};

struct AuditEntry {
  const char* algorithm = "";  ///< static string: "appro", "greedy", ...
  std::uint32_t query = 0;
  std::uint32_t demand = 0;    ///< index into the query's demand list
  std::uint32_t dataset = 0;
  bool admitted = false;
  AuditReason reason = AuditReason::kAdmitted;
  std::uint32_t site = static_cast<std::uint32_t>(-1);  ///< winning site
  bool placed_replica = false;
  /// Dual price breakdown of the winning site (admitted entries only).
  double theta_term = 0.0;     ///< θ_site: capacity price before this demand
  double capacity_term = 0.0;  ///< need / A(site)
  double eta_term = 0.0;       ///< η weight · delay / deadline
  double mu_term = 0.0;        ///< replica-creation surcharge (fresh replicas)
  double total_price = 0.0;    ///< the argmin price the scan selected
};

/// Per-query aggregate over a batch of entries, keyed by (algorithm, query).
/// A query is rejected when any of its demands has a non-admitted entry; its
/// binding reason is the first non-rollback rejection recorded for it.
struct AuditSummary {
  std::size_t admitted_queries = 0;
  std::size_t rejected_queries = 0;
  /// Rejected-query counts indexed by AuditReason (kAdmitted slot unused;
  /// kAtomicRollback counts queries whose only rejection was the rollback
  /// of a sibling demand — by construction that does not happen, every
  /// aborted query also logs the failing demand's reason).
  std::array<std::size_t, kAuditReasonCount> rejected_by_reason{};
};

[[nodiscard]] AuditSummary summarize_audit(
    const std::vector<AuditEntry>& entries);

class AuditLog {
 public:
  void record(const AuditEntry& e);
  void record_batch(const std::vector<AuditEntry>& batch);
  [[nodiscard]] std::vector<AuditEntry> snapshot() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

  /// {"entries": [...], "summary": {...}} with reason names spelled out.
  void write_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::vector<AuditEntry> entries_;
};

/// Process-wide audit log used by the admission engines.
AuditLog& audit_log();

}  // namespace edgerep::obs
