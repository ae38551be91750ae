// Deterministic flight recorder: a fixed-width binary journal of every
// causal step the online simulator, the streaming plane and batch repair
// take.  Producers hand each step to an obs::CausalSink
// (obs/causal_sink.h), which appends it here when the recorder is on.
//
// The recorder has its own switch, off by default: set_recorder_enabled or
// the EDGEREP_RECORD variable.  Journals grow with the event count, so
// set_all_enabled / EDGEREP_OBS leave it alone.
//
//   EDGEREP_RECORD=1 | full   full journal (every record kept)
//   EDGEREP_RECORD=ring       ring journal, default capacity
//   EDGEREP_RECORD=ring:4096  ring journal keeping the last 4096 records
//
// A ring holds at most kMaxRingCapacity records (2^24, 640 MiB).  A value
// starting with "ring" that is not exactly one of the two ring forms, with
// N in [1, kMaxRingCapacity], prints one warning on stderr and leaves the
// recorder off.
//
// Off, nothing is appended and outcomes are bit-identical.  On, a fixed
// config produces a byte-identical journal across runs (tests/golden/
// pins several): records carry only simulation-clock times and stable ids,
// in the event core's pinned order.
//
// Appends are single-writer and take no lock.  Ring mode never allocates
// (the buffer is sized at configure time); full mode grows geometrically
// (call `reserve` up front to avoid it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace edgerep::obs {

/// What happened at this causal step.  Online kinds (arrival .. fail) come
/// from run_online (kRelocate and kShed also from batch repair); stream
/// kinds (epoch_begin .. stream_reject) from run_stream's serial phase 2.
enum class RecordKind : std::uint8_t {
  // Online simulator.
  kArrival = 0,        ///< query arrived: a=query, b=n_demands, v0=deadline
  kTransferStart = 1,  ///< admission launched a flight: a=query, b=dataset,
                       ///< arg=demand, site, v0=total delay, v1=proc delay,
                       ///< flags bit0 = site is a data center
  kRelocate = 2,       ///< fault re-seated a flight (same payload as
                       ///< kTransferStart; supersedes the prior flight).
                       ///< Also emitted by the batch repair engine for each
                       ///< re-admitted demand (time 0, v0=v1=0)
  kComputeDone = 3,    ///< flight completed: a=query, arg=demand, site
  kReject = 4,         ///< admission refused: a=query, b=failing demand,
                       ///< arg=AuditReason
  kShed = 5,           ///< fault killed a flight: a=query, arg=demand, site,
                       ///< flags 0=site down, 1=capacity loss, 2=repair
                       ///< eviction (batch repair engine, b=dataset, time 0)
  kFail = 6,           ///< admitted query failed (no survivable re-seat):
                       ///< a=query
  kFaultApply = 7,     ///< fault event hit: site, a=edge endpoint or ~0,
                       ///< arg=FaultKind, v0=fraction
  // Streaming admission plane.
  kEpochBegin = 8,     ///< micro-epoch opened: b=epoch, a=batch size,
                       ///< v0=window end time
  kIntent = 9,         ///< phase-1 intent reached reconciliation: a=query,
                       ///< b=shard, arg=placements in the intent
  kCommit = 10,        ///< intent committed to the plan: a=query, b=shard
  kConflict = 11,      ///< reservation conflict rolled an intent back:
                       ///< a=query, b=shard, site=first losing site
  kRequeue = 12,       ///< conflict loser re-queued: a=query, b=shard,
                       ///< arg=requeue count so far
  kStreamReject = 13,  ///< query left the stream unadmitted: a=query,
                       ///< b=shard, arg: 0=infeasible, 1=budget,
                       ///< 2=requeue budget spent
  // Flow-level network backend (online simulator, --network=flow).
  kFlowRateChange = 14,  ///< max-min re-fill changed a transfer's rate:
                         ///< a=(query,demand) layout slot, v0=rate,
                         ///< v1=remaining work, b=bottleneck edge (~0u when
                         ///< the flow's own rate cap froze it), arg: 0=rate
                         ///< transition, 1=retirement at actual completion
  // Watchdog facet (obs/watchdog.h).
  kAlert = 15,  ///< watchdog alert transition: arg=AlertKind, a=subject id,
                ///< b=alert seq (pairs the open with its resolve), site=
                ///< subject when it names a site else ~0u, v0=detector
                ///< statistic at the crossing, flags bit0: 0=open (v1=
                ///< threshold), 1=resolve (v1=onset time), bits1-2=
                ///< AlertSeverity, bits3-4=AlertSubjectKind
};

inline constexpr std::size_t kRecordKindCount = 16;

[[nodiscard]] const char* to_string(RecordKind kind) noexcept;

/// `JournalRecord::site` of a record that names no site (the default).
inline constexpr std::uint32_t kNoSite = 0xffffffffu;

/// One causal step.  Exactly 40 bytes, no implicit padding, trivially
/// copyable — journals are raw little-endian dumps of these.  Field
/// meanings depend on `kind` (see RecordKind).
struct JournalRecord {
  double time = 0.0;        ///< simulation clock, seconds
  double v0 = 0.0;          ///< kind-specific (deadline / total delay / ...)
  double v1 = 0.0;          ///< kind-specific (proc delay / ...)
  std::uint32_t a = 0;      ///< kind-specific id (usually query)
  std::uint32_t b = 0;      ///< kind-specific id (dataset / shard / epoch)
  std::uint32_t site = kNoSite;  ///< site id, or kNoSite
  std::uint8_t kind = 0;    ///< RecordKind
  std::uint8_t arg = 0;     ///< small kind-specific payload (demand, reason)
  std::uint16_t flags = 0;  ///< kind-specific bits (role tier, shed cause)
};
static_assert(sizeof(JournalRecord) == 40, "journal record layout is ABI");

enum class RecorderMode : std::uint8_t { kFull = 0, kRing = 1 };

/// On-disk journal header, 48 bytes.  Deterministic: counts and mode only,
/// no timestamps.
struct JournalHeader {
  char magic[8];              ///< "EDGEREPJ"
  std::uint32_t version;      ///< kJournalVersion
  std::uint32_t record_size;  ///< sizeof(JournalRecord)
  std::uint64_t appended;     ///< records ever appended
  std::uint64_t retained;     ///< records present in this file
  std::uint64_t dropped;      ///< records overwritten (ring mode)
  std::uint8_t mode;          ///< RecorderMode
  std::uint8_t pad[7];        ///< zero
};
static_assert(sizeof(JournalHeader) == 48, "journal header layout is ABI");

inline constexpr std::uint32_t kJournalVersion = 1;
inline constexpr std::size_t kDefaultRingCapacity = 1u << 16;
/// The largest ring `configure` accepts, in records.
inline constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 24;

/// Single-writer journal buffer.  Full mode keeps everything; ring mode
/// keeps the last `ring_capacity` records and counts the overwritten rest
/// as `dropped`.
class Recorder {
 public:
  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Reset the journal and switch mode.  Ring mode preallocates the whole
  /// buffer here so `append` never allocates; a ring capacity above
  /// kMaxRingCapacity throws std::invalid_argument and changes nothing.
  void configure(RecorderMode mode,
                 std::size_t ring_capacity = kDefaultRingCapacity);

  /// Drop all records (mode and ring capacity are kept).
  void clear() noexcept;

  /// Pre-size the full-mode buffer (no-op in ring mode).
  void reserve(std::size_t records);

  /// Append one record.  Hot path: full mode is a bare push_back — the
  /// retained / appended counts are implied by the buffer size, so the
  /// serve path pays no bookkeeping beyond the capacity check.  Ring mode
  /// is a store + wrap with explicit drop accounting.
  void append(const JournalRecord& rec) noexcept(false) {
    if (mode_ == RecorderMode::kFull) {
      buf_.push_back(rec);
      return;
    }
    buf_[ring_head_] = rec;
    ring_head_ = (ring_head_ + 1 == buf_.size()) ? 0 : ring_head_ + 1;
    if (retained_ < buf_.size()) {
      ++retained_;
    } else {
      ++dropped_;
    }
    ++appended_;
  }

  [[nodiscard]] RecorderMode mode() const noexcept { return mode_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return mode_ == RecorderMode::kFull ? buf_.size() : retained_;
  }
  [[nodiscard]] std::uint64_t total_appended() const noexcept {
    return mode_ == RecorderMode::kFull ? buf_.size() : appended_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return mode_ == RecorderMode::kFull ? 0 : dropped_;
  }
  [[nodiscard]] std::size_t ring_capacity() const noexcept {
    return mode_ == RecorderMode::kRing ? buf_.size() : 0;
  }

  /// Copy the retained records, oldest first (unrolls the ring).
  [[nodiscard]] std::vector<JournalRecord> snapshot() const;

  /// Serialize header + retained records (oldest first).  Byte-identical
  /// output for identical append sequences.
  void write(std::ostream& out) const;
  /// Convenience: write to a file.  Returns false on I/O failure.
  [[nodiscard]] bool write_file(const std::string& path) const;

 private:
  std::vector<JournalRecord> buf_;
  // Ring-mode accounting only; full mode derives every count from `buf_`.
  std::size_t ring_head_ = 0;  ///< next slot to write
  std::size_t retained_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t dropped_ = 0;
  RecorderMode mode_ = RecorderMode::kFull;
};

/// The process-wide journal every instrumented subsystem appends to.
[[nodiscard]] Recorder& recorder();

/// A journal read back from disk.
struct Journal {
  JournalHeader header{};
  std::vector<JournalRecord> records;
};

/// Parse a serialized journal.  Returns false (with a diagnostic in
/// `*error` when non-null) on bad magic / version / truncation.
[[nodiscard]] bool read_journal(std::istream& in, Journal* out,
                                std::string* error = nullptr);
[[nodiscard]] bool read_journal_file(const std::string& path, Journal* out,
                                     std::string* error = nullptr);

}  // namespace edgerep::obs
