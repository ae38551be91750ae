// Deterministic workload-drift & SLO-anomaly watchdog, the 5th obs facet.
//
// A streaming anomaly detector driven purely by the *simulation clock*.
// It consumes the causal-event stream (obs/causal_sink.h) that run_online
// and the stream plane's serial phase emit, so a fixed input produces a
// bit-identical alert stream across thread counts and repeated runs.  It
// keeps
//
//   * per-dataset popularity in a space-saving top-k sketch (hotspots),
//   * per-region arrival rates (sim-time windows online, micro-epoch
//     batches on the stream plane) through an EWMA and a one-sided CUSUM,
//   * per-site utilisation EWMAs through Page–Hinkley detectors,
//   * a breach-burst EWMA over deadline slack (failures count as
//     breaches), and
//   * per-bottleneck-link flow-stretch EWMAs on --network=flow runs.
//
// Crossings open (and hysteresis resolutions close) typed `Alert`s.  Each
// transition is also queued as a kAlert journal record, which the sink
// drains after every feed and emits right behind the step that caused it;
// `analyze_journal` rebuilds the alert timeline from the journal alone and
// attributes every breach to the alert windows it fell in.
//
// The facet defaults OFF and has its own EDGEREP_WATCHDOG variable (alert
// streams are run-scoped state, so EDGEREP_OBS / set_all_enabled leave it
// alone); off or on, simulation outcomes are bit-identical.  Feeds are
// single-writer and take no lock unless an alert opens or resolves: each
// detector keeps the index of its open alert, so a feed's cost does not
// grow with the number of open alerts.  The mutex guards only the alert
// list, so the /alerts endpoint can snapshot it mid-run.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "obs/recorder.h"

namespace edgerep::obs {

/// What a detector saw cross its threshold.
enum class AlertKind : std::uint8_t {
  kDatasetHotspot = 0,    ///< one dataset dominates the demand mix
  kSiteOverload = 1,      ///< a site's utilization EWMA shifted upward
  kArrivalRateShift = 2,  ///< a region's arrival rate left its baseline
  kBreachBurst = 3,       ///< deadline breaches / failures are bursting
  kFlowStretch = 4,       ///< a bottleneck link keeps stretching transfers
};
inline constexpr std::size_t kAlertKindCount = 5;

enum class AlertSeverity : std::uint8_t { kInfo = 0, kWarning = 1,
                                          kCritical = 2 };

/// What the alert's subject id names.
enum class AlertSubjectKind : std::uint8_t { kSite = 0, kDataset = 1,
                                             kRegion = 2, kLink = 3 };

[[nodiscard]] const char* to_string(AlertKind kind) noexcept;
[[nodiscard]] const char* to_string(AlertSeverity severity) noexcept;
[[nodiscard]] const char* to_string(AlertSubjectKind kind) noexcept;

/// One detector crossing, from onset until (possibly) resolution.  Times
/// are simulation seconds; `resolve < 0` means still open.
struct Alert {
  double onset = 0.0;
  double resolve = -1.0;
  AlertKind kind = AlertKind::kDatasetHotspot;
  AlertSeverity severity = AlertSeverity::kInfo;
  AlertSubjectKind subject_kind = AlertSubjectKind::kDataset;
  std::uint32_t subject = 0;   ///< site / dataset / region / link id
  std::uint32_t seq = 0;       ///< run-scoped sequence number (open order)
  double onset_value = 0.0;    ///< detector statistic at the crossing
  double threshold = 0.0;      ///< the threshold it crossed
  double resolve_value = 0.0;  ///< statistic at resolution (0 while open)
};

/// "No bottleneck link" sentinel for on_flow_retire (mirrors the flow
/// journal's ~0u edge id); such retirements skip the per-link detector.
inline constexpr std::uint32_t kNoAlertLink = 0xffffffffu;

/// Detector thresholds.  Defaults are tuned so steady workloads stay
/// silent and the drifting-Zipf / diurnal-wave generators (workload/
/// arrival_gen.h) fire within a few thousand queries.
struct WatchdogConfig {
  // Dataset popularity (space-saving sketch + share hysteresis).
  std::size_t sketch_size = 8;
  std::size_t hotspot_warmup = 128;     ///< demands before shares count
  double hotspot_open_share = 0.35;
  double hotspot_resolve_share = 0.22;
  double hotspot_critical_share = 0.6;
  // Per-region arrival rate (windowed counts -> EWMA ratio -> CUSUM).
  double arrival_window = 5.0;          ///< sim seconds per rate sample
  std::size_t rate_warmup = 4;          ///< windows fixing the baseline
  double rate_ewma_alpha = 0.3;
  double rate_cusum_slack = 0.25;       ///< tolerated ratio drift / window
  double rate_cusum_threshold = 2.0;    ///< cumulative excess to alarm
  double rate_resolve_ratio = 1.25;
  double rate_critical_ratio = 2.0;
  // Per-site utilization (EWMA -> Page–Hinkley).
  double site_ewma_alpha = 0.2;
  std::size_t site_warmup = 8;          ///< samples before alarms count
  double site_ph_delta = 0.02;          ///< tolerated mean drift per sample
  double site_ph_lambda = 1.0;          ///< cumulative excess to alarm
  double site_open_floor = 0.5;         ///< EWMA must exceed this to open
  double site_resolve_frac = 0.8;       ///< resolve below frac of open EWMA
  double site_critical_util = 0.95;
  // Breach burst (deadline slack; failures count as breaches).
  double breach_ewma_alpha = 0.2;
  std::size_t breach_warmup = 16;
  double breach_open_level = 0.2;
  double breach_resolve_level = 0.05;
  double breach_critical_level = 0.5;
  // Flow stretch (per bottleneck link, seconds past the priced completion).
  double stretch_ewma_alpha = 0.3;
  std::size_t stretch_warmup = 4;
  double stretch_open_seconds = 0.5;
  double stretch_resolve_seconds = 0.25;
};

/// Run-level rollup, copied into OnlineResult::watchdog so callers get the
/// alert counts without touching the singleton (deterministic; excluded
/// from online_result_hash like the other diagnostic blocks).
struct WatchdogStats {
  std::size_t opened = 0;
  std::size_t resolved = 0;
  std::size_t open_at_end = 0;
  std::uint8_t worst_severity = 0;  ///< max AlertSeverity over the run
  std::array<std::size_t, kAlertKindCount> opened_by_kind{};
};

// --- detector primitives --------------------------------------------------
// Exposed so tests can pin them against hand-computed fixtures; every
// update is a fixed double-precision expression, so sequences are
// reproducible bit for bit.

/// Exponentially weighted moving average, seeded by the first sample.
struct WatchdogEwma {
  double alpha = 0.2;
  double value = 0.0;
  bool primed = false;
  void feed(double x) noexcept {
    value = primed ? value + alpha * (x - value) : x;
    primed = true;
  }
};

/// One-sided CUSUM for upward shifts.  The first `warmup` samples fix the
/// target mean; afterwards `pos += max(0, x - target - slack)` style
/// accumulation alarms once the cumulative excess passes `threshold`.
class WatchdogCusum {
 public:
  WatchdogCusum() = default;
  WatchdogCusum(std::size_t warmup, double slack, double threshold)
      : warmup_(warmup), slack_(slack), threshold_(threshold) {}

  /// Returns true on every sample while the statistic sits above the
  /// threshold (callers edge-detect with their own open flag).
  bool feed(double x) noexcept {
    if (seen_ < warmup_) {
      warm_sum_ += x;
      ++seen_;
      if (seen_ == warmup_) target_ = warm_sum_ / static_cast<double>(warmup_);
      return false;
    }
    pos_ += x - target_ - slack_;
    if (pos_ < 0.0) pos_ = 0.0;
    return pos_ > threshold_;
  }
  /// Drop the accumulated evidence (called on resolve); the warmed-up
  /// target is kept.
  void rearm() noexcept { pos_ = 0.0; }
  /// Skip warmup entirely and compare against a known target (used for
  /// pre-normalized statistics such as rate ratios, where target == 1).
  void preset_target(double target) noexcept {
    target_ = target;
    seen_ = warmup_;
  }
  [[nodiscard]] bool warmed() const noexcept { return seen_ >= warmup_; }
  [[nodiscard]] double target() const noexcept { return target_; }
  [[nodiscard]] double statistic() const noexcept { return pos_; }

 private:
  std::size_t warmup_ = 4;
  double slack_ = 0.25;
  double threshold_ = 2.0;
  std::size_t seen_ = 0;
  double warm_sum_ = 0.0;
  double target_ = 0.0;
  double pos_ = 0.0;
};

/// Page–Hinkley test for upward mean shifts: m_t += x_t − mean_t − delta,
/// alarm when m_t − min m exceeds lambda.
class WatchdogPageHinkley {
 public:
  WatchdogPageHinkley() = default;
  WatchdogPageHinkley(double delta, double lambda)
      : delta_(delta), lambda_(lambda) {}

  bool feed(double x) noexcept {
    ++n_;
    mean_ += (x - mean_) / static_cast<double>(n_);
    cum_ += x - mean_ - delta_;
    if (cum_ < min_cum_) min_cum_ = cum_;
    return cum_ - min_cum_ > lambda_;
  }
  void reset() noexcept {
    n_ = 0;
    mean_ = 0.0;
    cum_ = 0.0;
    min_cum_ = 0.0;
  }
  [[nodiscard]] std::size_t samples() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double statistic() const noexcept { return cum_ - min_cum_; }

 private:
  double delta_ = 0.02;
  double lambda_ = 1.0;
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double cum_ = 0.0;
  double min_cum_ = 0.0;
};

/// Space-saving top-k heavy-hitter sketch (Metwally et al.): k counters,
/// unseen keys evict the current minimum and inherit its count as error.
/// Ties break on the first minimum in slot order, so the structure is a
/// pure function of the feed sequence.
class SpaceSavingSketch {
 public:
  struct Entry {
    std::uint32_t key = 0;
    std::uint64_t count = 0;
    std::uint64_t error = 0;  ///< overestimate bound inherited on eviction
  };

  explicit SpaceSavingSketch(std::size_t k = 8) : capacity_(k == 0 ? 1 : k) {}

  /// Count one occurrence of `key`; returns its estimated count after.
  std::uint64_t feed(std::uint32_t key) {
    ++total_;
    std::size_t min_at = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].key == key) return ++entries_[i].count;
      if (entries_[i].count < entries_[min_at].count) min_at = i;
    }
    if (entries_.size() < capacity_) {
      entries_.push_back({key, 1, 0});
      return 1;
    }
    Entry& victim = entries_[min_at];
    victim.error = victim.count;
    victim.key = key;
    return ++victim.count;
  }

  /// Estimated count (upper bound) of `key`; 0 when untracked.
  [[nodiscard]] std::uint64_t estimate(std::uint32_t key) const noexcept {
    for (const Entry& e : entries_) {
      if (e.key == key) return e.count;
    }
    return 0;
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }
  void clear() noexcept {
    entries_.clear();
    total_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<Entry> entries_;
  std::uint64_t total_ = 0;
};

// --- the facet ------------------------------------------------------------

class Watchdog {
 public:
  Watchdog() = default;
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Replace the thresholds (takes effect at the next begin_run).
  void set_config(const WatchdogConfig& cfg);
  [[nodiscard]] const WatchdogConfig& config() const noexcept {
    return cfg_;
  }

  /// Reset every detector, the alert list and the transition queue for a
  /// new run.
  void begin_run();

  // Feeds — sim-clock times and stable ids only; single-writer.
  void on_arrival(double t, std::uint32_t region);
  void on_demand(double t, std::uint32_t dataset);
  void on_site_util(double t, std::uint32_t site, double util);
  void on_completion(double t, double slack, bool failed);
  void on_flow_retire(double t, std::uint32_t link, double stretch);
  /// One rate sample per shard with a non-empty batch, ascending shard id;
  /// the shard plays the role of a region.
  void on_stream_epoch(double t, std::span<const std::uint32_t> batches,
                       double window);

  /// The alert transitions since the last clear, oldest first, as kAlert
  /// journal records (see RecordKind::kAlert).
  [[nodiscard]] const std::vector<JournalRecord>& transitions() const noexcept {
    return transitions_;
  }
  void clear_transitions() noexcept { transitions_.clear(); }

  /// Snapshot of every alert opened this run, open-order (= seq order).
  [[nodiscard]] std::vector<Alert> alerts() const;
  [[nodiscard]] WatchdogStats stats() const;
  /// One JSON object for the /alerts endpoint (thread-safe snapshot).
  void write_json(std::ostream& os) const;

 private:
  /// A detector's open-alert slot: the alert's index in alerts_ (= its
  /// seq) while one is open, kClosed otherwise.
  static constexpr std::uint32_t kClosed = 0xffffffffu;

  struct RegionState {
    double window_start = 0.0;
    std::size_t window_count = 0;
    bool windowing = false;
    std::size_t samples = 0;
    double warm_sum = 0.0;
    double baseline = 0.0;  ///< mean rate of the first rate_warmup samples
    WatchdogEwma ratio;     ///< EWMA of rate / baseline
    WatchdogCusum cusum;
    std::uint32_t alert = kClosed;
  };
  struct SiteState {
    WatchdogEwma util;
    WatchdogPageHinkley ph;
    std::size_t samples = 0;
    double open_ewma = 0.0;
    std::uint32_t alert = kClosed;
  };
  struct LinkState {
    WatchdogEwma stretch;
    std::size_t samples = 0;
    std::uint32_t alert = kClosed;
  };

  RegionState& region_state(std::uint32_t region);  ///< grows on demand
  void feed_rate_sample(double t, std::uint32_t region, double rate);
  /// Open an alert and return its slot.
  std::uint32_t open_alert(double t, AlertKind kind, AlertSeverity severity,
                           AlertSubjectKind subject_kind,
                           std::uint32_t subject, double value,
                           double threshold);
  /// Resolve the alert in `slot` and close the slot.
  void resolve_alert(double t, std::uint32_t& slot, double value);

  WatchdogConfig cfg_;
  std::vector<JournalRecord> transitions_;

  SpaceSavingSketch sketch_{8};
  std::uint64_t demands_seen_ = 0;
  /// (dataset, slot) of every open hotspot, ascending dataset.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hotspots_;
  std::vector<RegionState> regions_;
  std::vector<SiteState> sites_;
  std::vector<LinkState> links_;
  WatchdogEwma breach_level_;
  std::size_t completions_seen_ = 0;
  std::uint32_t breach_alert_ = kClosed;

  mutable std::mutex mu_;  ///< guards the three members below only
  std::vector<Alert> alerts_;
  std::size_t open_count_ = 0;
  std::uint8_t worst_severity_ = 0;
};

/// The process-wide watchdog every instrumented subsystem feeds.
[[nodiscard]] Watchdog& watchdog();

}  // namespace edgerep::obs
