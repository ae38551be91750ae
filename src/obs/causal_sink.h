// The causal-event sink: one emission per causal step, five consumers.
//
// run_online, run_stream and RepairEngine::repair hand each causal step to
// a per-run CausalSink as one JournalRecord (obs/recorder.h).  The sink
// samples the facet switches once and feeds the record to the consumers
// that are on: the recorder appends it; the watchdog takes the feed it
// implies, and its alert transitions come back through emit() as kAlert
// records; the audit log and sim-clock spans take the verdicts and flight
// times it implies; the metrics count it.  All five see the steps in
// emission order, the journal's order.  Values a consumer needs that the
// record lacks travel beside it in CausalSide; three steps with no record
// have entry points that never journal.  Producers emit from serial code.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/audit.h"
#include "obs/recorder.h"

namespace edgerep::obs {

class Counter;
class Watchdog;

/// Values beside a record, each read only for the kinds it names.
struct CausalSide {
  /// Demanded datasets: kArrival, kCommit, kReject, kFail, kRequeue.
  std::span<const std::uint32_t> datasets{};
  std::span<const std::uint32_t> rolled_back{};  ///< kReject: sites undone
  std::span<const std::uint32_t> batches{};  ///< kEpochBegin: size per shard
  double window = 0.0;  ///< kEpochBegin: epoch length (s)
  double util = 0.0;    ///< kRelocate, kComputeDone: site utilisation after
  double slack = 0.0;   ///< kRelocate: the query's completion slack
  bool placed_replica = false;  ///< kTransferStart: a fresh replica
};

/// Who emits: it names the audit entries and picks the facets.  The stream
/// plane has no sim-clock spans; repair (no clock) only journals and audits.
enum class Producer : std::uint8_t { kOnline, kStream, kRepair };

class CausalSink {
 public:
  /// Samples the facet switches; starts a watchdog run when it is on.
  explicit CausalSink(Producer producer);
  CausalSink(const CausalSink&) = delete;
  CausalSink& operator=(const CausalSink&) = delete;

  /// Whether any consumer is on.  When false, skip building records.
  [[nodiscard]] bool on() const noexcept { return on_; }
  /// Whether the watchdog is fed (its stats then describe this run).
  [[nodiscard]] bool watching() const noexcept { return wd_ != nullptr; }

  /// One causal step: `rec` with its kind set to `kind`.
  void emit(RecordKind kind, JournalRecord rec, const CausalSide& side = {});

  /// An admission, with the completion slack it was priced at.
  void admitted(double t, double slack);
  /// A site's utilisation after an admission started a transfer there.
  void site_util(double t, std::uint32_t site, double util);
  /// A flow delivered: `slot` as in kFlowRateChange, `stretch` past the
  /// priced completion, `slack` of the query.
  void delivered(double t, std::uint32_t slot, double stretch, double slack);

  /// Audit entries that are not causal steps go here; null when off.
  [[nodiscard]] std::vector<AuditEntry>* audit_entries() noexcept {
    return audit_on_ ? &audit_ : nullptr;
  }

  /// End of run (call once): audit entries to the audit log, spans to the
  /// tracer.
  void finish();

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    double t0, t1;
  };

  void watch(const JournalRecord& r, const CausalSide& side);
  void drain_alerts();
  void audit(const JournalRecord& r, const CausalSide& side);
  void trace(const JournalRecord& r, const CausalSide& side);

  const char* producer_;
  Recorder* rec_ = nullptr;
  Watchdog* wd_ = nullptr;
  bool audit_on_ = false;
  bool trace_on_ = false;
  bool on_ = false;
  std::array<Counter*, kRecordKindCount> counters_{};
  Counter* admitted_ = nullptr;

  std::vector<std::uint32_t> links_;  ///< flow slot -> last bottleneck link
  std::vector<AuditEntry> audit_;
  std::uint32_t conflict_site_ = kNoSite;  ///< named by the next kRequeue
  std::vector<Span> spans_;                ///< queries and flights
  std::vector<Span> instants_;
  std::vector<std::uint32_t> query_span_;  ///< query -> spans_ index
  /// Live flight (query, demand) -> its transfer span; compute follows.
  std::unordered_map<std::uint64_t, std::uint32_t> live_flights_;
};

}  // namespace edgerep::obs
