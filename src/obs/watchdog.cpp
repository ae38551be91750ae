#include "obs/watchdog.h"

#include <algorithm>
#include <cstdlib>
#include <ostream>

#include "obs/metrics.h"
#include "obs/slo.h"

namespace edgerep::obs {

namespace {

void count_transition(bool resolve, std::size_t open_now, double value,
                      AlertKind kind) {
  if (!metrics_enabled()) return;
  static Counter& opened = metrics().counter(
      "edgerep_watchdog_alerts_opened_total", "Watchdog alerts opened.");
  static Counter& resolved = metrics().counter(
      "edgerep_watchdog_alerts_resolved_total", "Watchdog alerts resolved.");
  static Gauge& open_now_g = metrics().gauge(
      "edgerep_watchdog_open_alerts", "Watchdog alerts currently open.");
  static Gauge& breach_g = metrics().gauge(
      "edgerep_watchdog_breach_level",
      "Breach-burst EWMA at the last breach-burst alert transition.");
  static Gauge& share_g = metrics().gauge(
      "edgerep_watchdog_top_share",
      "Estimated demand share at the last dataset-hotspot transition.");
  (resolve ? resolved : opened).inc();
  open_now_g.set(static_cast<double>(open_now));
  if (kind == AlertKind::kBreachBurst) breach_g.set(value);
  if (kind == AlertKind::kDatasetHotspot) share_g.set(value);
}

/// The kAlert journal record of one open or resolve transition.
JournalRecord alert_record(const Alert& alert, bool resolve, double t,
                           double value) {
  JournalRecord r;
  r.time = t;
  r.v0 = value;
  r.v1 = resolve ? alert.onset : alert.threshold;
  r.a = alert.subject;
  r.b = alert.seq;
  if (alert.subject_kind == AlertSubjectKind::kSite) r.site = alert.subject;
  r.kind = static_cast<std::uint8_t>(RecordKind::kAlert);
  r.arg = static_cast<std::uint8_t>(alert.kind);
  r.flags = static_cast<std::uint16_t>(
      (resolve ? 1u : 0u) | (static_cast<unsigned>(alert.severity) << 1) |
      (static_cast<unsigned>(alert.subject_kind) << 3));
  return r;
}

}  // namespace

const char* to_string(AlertKind kind) noexcept {
  switch (kind) {
    case AlertKind::kDatasetHotspot:
      return "dataset_hotspot";
    case AlertKind::kSiteOverload:
      return "site_overload";
    case AlertKind::kArrivalRateShift:
      return "arrival_rate_shift";
    case AlertKind::kBreachBurst:
      return "breach_burst";
    case AlertKind::kFlowStretch:
      return "flow_stretch";
  }
  return "unknown";
}

const char* to_string(AlertSeverity severity) noexcept {
  switch (severity) {
    case AlertSeverity::kInfo:
      return "info";
    case AlertSeverity::kWarning:
      return "warning";
    case AlertSeverity::kCritical:
      return "critical";
  }
  return "unknown";
}

const char* to_string(AlertSubjectKind kind) noexcept {
  switch (kind) {
    case AlertSubjectKind::kSite:
      return "site";
    case AlertSubjectKind::kDataset:
      return "dataset";
    case AlertSubjectKind::kRegion:
      return "region";
    case AlertSubjectKind::kLink:
      return "link";
  }
  return "unknown";
}

void Watchdog::set_config(const WatchdogConfig& cfg) { cfg_ = cfg; }

void Watchdog::begin_run() {
  transitions_.clear();
  sketch_ = SpaceSavingSketch(cfg_.sketch_size);
  demands_seen_ = 0;
  hotspots_.clear();
  regions_.clear();
  sites_.clear();
  links_.clear();
  breach_level_ = WatchdogEwma{cfg_.breach_ewma_alpha};
  completions_seen_ = 0;
  breach_alert_ = kClosed;
  std::lock_guard<std::mutex> lock(mu_);
  alerts_.clear();
  open_count_ = 0;
  worst_severity_ = 0;
}

Watchdog::RegionState& Watchdog::region_state(std::uint32_t region) {
  if (region >= regions_.size()) {
    regions_.resize(region + 1);
    for (RegionState& r : regions_) {
      if (!r.windowing) {
        r.ratio = WatchdogEwma{cfg_.rate_ewma_alpha};
        r.cusum = WatchdogCusum(0, cfg_.rate_cusum_slack,
                                cfg_.rate_cusum_threshold);
        r.cusum.preset_target(1.0);
        r.windowing = true;
      }
    }
  }
  return regions_[region];
}

void Watchdog::on_arrival(double t, std::uint32_t region) {
  RegionState& r = region_state(region);
  while (t >= r.window_start + cfg_.arrival_window) {
    feed_rate_sample(r.window_start + cfg_.arrival_window, region,
                     static_cast<double>(r.window_count) /
                         cfg_.arrival_window);
    r.window_count = 0;
    r.window_start += cfg_.arrival_window;
  }
  ++r.window_count;
}

void Watchdog::on_stream_epoch(double t,
                               std::span<const std::uint32_t> batches,
                               double window) {
  if (window <= 0.0) return;
  for (std::uint32_t shard = 0; shard < batches.size(); ++shard) {
    if (batches[shard] == 0) continue;
    region_state(shard);
    feed_rate_sample(t, shard, static_cast<double>(batches[shard]) / window);
  }
}

void Watchdog::feed_rate_sample(double t, std::uint32_t region, double rate) {
  RegionState& r = regions_[region];
  if (r.samples < cfg_.rate_warmup) {
    r.warm_sum += rate;
    ++r.samples;
    if (r.samples == cfg_.rate_warmup) {
      r.baseline = r.warm_sum / static_cast<double>(cfg_.rate_warmup);
    }
    return;
  }
  ++r.samples;
  if (r.baseline <= 0.0) return;  // silent warmup: no baseline to compare to
  r.ratio.feed(rate / r.baseline);
  const bool alarm = r.cusum.feed(r.ratio.value);
  if (r.alert == kClosed && alarm) {
    r.alert = open_alert(t, AlertKind::kArrivalRateShift,
                         r.ratio.value > cfg_.rate_critical_ratio
                             ? AlertSeverity::kCritical
                             : AlertSeverity::kWarning,
                         AlertSubjectKind::kRegion, region, r.ratio.value,
                         1.0 + cfg_.rate_cusum_slack);
  } else if (r.alert != kClosed && r.ratio.value < cfg_.rate_resolve_ratio) {
    r.cusum.rearm();
    resolve_alert(t, r.alert, r.ratio.value);
  }
}

void Watchdog::on_demand(double t, std::uint32_t dataset) {
  const std::uint64_t count = sketch_.feed(dataset);
  ++demands_seen_;
  if (demands_seen_ < cfg_.hotspot_warmup) return;
  const double total = static_cast<double>(sketch_.total());
  const double share = static_cast<double>(count) / total;
  if (share > cfg_.hotspot_open_share) {
    const auto at = std::lower_bound(
        hotspots_.begin(), hotspots_.end(), dataset,
        [](const auto& h, std::uint32_t ds) { return h.first < ds; });
    if (at == hotspots_.end() || at->first != dataset) {
      const std::uint32_t slot = open_alert(
          t, AlertKind::kDatasetHotspot,
          share > cfg_.hotspot_critical_share ? AlertSeverity::kCritical
                                              : AlertSeverity::kWarning,
          AlertSubjectKind::kDataset, dataset, share, cfg_.hotspot_open_share);
      hotspots_.insert(at, {dataset, slot});
    }
  }
  // Hysteresis resolution for every hotspot still open, in ascending
  // dataset order.
  for (std::size_t i = 0; i < hotspots_.size();) {
    const double s =
        static_cast<double>(sketch_.estimate(hotspots_[i].first)) / total;
    if (s < cfg_.hotspot_resolve_share) {
      resolve_alert(t, hotspots_[i].second, s);
      hotspots_.erase(hotspots_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void Watchdog::on_site_util(double t, std::uint32_t site, double util) {
  if (site >= sites_.size()) {
    const std::size_t old = sites_.size();
    sites_.resize(site + 1);
    for (std::size_t i = old; i < sites_.size(); ++i) {
      sites_[i].util = WatchdogEwma{cfg_.site_ewma_alpha};
      sites_[i].ph =
          WatchdogPageHinkley(cfg_.site_ph_delta, cfg_.site_ph_lambda);
    }
  }
  SiteState& s = sites_[site];
  s.util.feed(util);
  ++s.samples;
  if (s.alert == kClosed) {
    const bool alarm = s.ph.feed(s.util.value);
    if (alarm && s.samples >= cfg_.site_warmup &&
        s.util.value > cfg_.site_open_floor) {
      s.open_ewma = s.util.value;
      s.alert = open_alert(t, AlertKind::kSiteOverload,
                           s.util.value > cfg_.site_critical_util
                               ? AlertSeverity::kCritical
                               : AlertSeverity::kWarning,
                           AlertSubjectKind::kSite, site, s.util.value,
                           cfg_.site_ph_lambda);
    }
  } else if (s.util.value < s.open_ewma * cfg_.site_resolve_frac) {
    s.ph.reset();
    s.samples = 0;
    resolve_alert(t, s.alert, s.util.value);
  }
}

void Watchdog::on_completion(double t, double slack, bool failed) {
  const bool breach = failed || !meets_deadline(slack);
  breach_level_.feed(breach ? 1.0 : 0.0);
  ++completions_seen_;
  if (completions_seen_ < cfg_.breach_warmup) return;
  if (breach_alert_ == kClosed &&
      breach_level_.value > cfg_.breach_open_level) {
    breach_alert_ = open_alert(t, AlertKind::kBreachBurst,
                               breach_level_.value > cfg_.breach_critical_level
                                   ? AlertSeverity::kCritical
                                   : AlertSeverity::kWarning,
                               AlertSubjectKind::kRegion, 0,
                               breach_level_.value, cfg_.breach_open_level);
  } else if (breach_alert_ != kClosed &&
             breach_level_.value < cfg_.breach_resolve_level) {
    resolve_alert(t, breach_alert_, breach_level_.value);
  }
}

void Watchdog::on_flow_retire(double t, std::uint32_t link, double stretch) {
  if (link == kNoAlertLink) return;
  if (link >= links_.size()) {
    const std::size_t old = links_.size();
    links_.resize(link + 1);
    for (std::size_t i = old; i < links_.size(); ++i) {
      links_[i].stretch = WatchdogEwma{cfg_.stretch_ewma_alpha};
    }
  }
  LinkState& s = links_[link];
  s.stretch.feed(std::max(stretch, 0.0));
  ++s.samples;
  if (s.samples < cfg_.stretch_warmup) return;
  if (s.alert == kClosed && s.stretch.value > cfg_.stretch_open_seconds) {
    s.alert = open_alert(t, AlertKind::kFlowStretch, AlertSeverity::kWarning,
                         AlertSubjectKind::kLink, link, s.stretch.value,
                         cfg_.stretch_open_seconds);
  } else if (s.alert != kClosed &&
             s.stretch.value < cfg_.stretch_resolve_seconds) {
    resolve_alert(t, s.alert, s.stretch.value);
  }
}

std::uint32_t Watchdog::open_alert(double t, AlertKind kind,
                                   AlertSeverity severity,
                                   AlertSubjectKind subject_kind,
                                   std::uint32_t subject, double value,
                                   double threshold) {
  Alert alert;
  alert.onset = t;
  alert.kind = kind;
  alert.severity = severity;
  alert.subject_kind = subject_kind;
  alert.subject = subject;
  alert.onset_value = value;
  alert.threshold = threshold;
  std::size_t open_now = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    alert.seq = static_cast<std::uint32_t>(alerts_.size());
    alerts_.push_back(alert);
    worst_severity_ =
        std::max(worst_severity_, static_cast<std::uint8_t>(severity));
    open_now = ++open_count_;
  }
  transitions_.push_back(alert_record(alert, /*resolve=*/false, t, value));
  count_transition(false, open_now, value, kind);
  return alert.seq;
}

void Watchdog::resolve_alert(double t, std::uint32_t& slot, double value) {
  Alert snapshot;
  std::size_t open_now = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Alert& alert = alerts_[slot];
    alert.resolve = t;
    alert.resolve_value = value;
    snapshot = alert;
    open_now = --open_count_;
  }
  slot = kClosed;
  transitions_.push_back(alert_record(snapshot, /*resolve=*/true, t, value));
  count_transition(true, open_now, value, snapshot.kind);
}

std::vector<Alert> Watchdog::alerts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alerts_;
}

WatchdogStats Watchdog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WatchdogStats s;
  s.opened = alerts_.size();
  s.open_at_end = open_count_;
  s.resolved = s.opened - s.open_at_end;
  s.worst_severity = worst_severity_;
  for (const Alert& a : alerts_) {
    ++s.opened_by_kind[static_cast<std::size_t>(a.kind)];
  }
  return s;
}

void Watchdog::write_json(std::ostream& os) const {
  const std::vector<Alert> snapshot = alerts();
  std::size_t open_count = 0;
  for (const Alert& a : snapshot) {
    if (a.resolve < 0.0) ++open_count;
  }
  os << "{\"enabled\":" << (watchdog_enabled() ? "true" : "false")
     << ",\"opened\":" << snapshot.size()
     << ",\"resolved\":" << snapshot.size() - open_count
     << ",\"open\":" << open_count << ",\"alerts\":[";
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const Alert& a = snapshot[i];
    if (i > 0) os << ',';
    os << "{\"seq\":" << a.seq << ",\"kind\":\"" << to_string(a.kind)
       << "\",\"severity\":\"" << to_string(a.severity)
       << "\",\"subject_kind\":\"" << to_string(a.subject_kind)
       << "\",\"subject\":" << a.subject << ",\"onset\":";
    write_json_double(os, a.onset);
    os << ",\"resolve\":";
    if (a.resolve < 0.0) {
      os << "null";
    } else {
      write_json_double(os, a.resolve);
    }
    os << ",\"onset_value\":";
    write_json_double(os, a.onset_value);
    os << ",\"threshold\":";
    write_json_double(os, a.threshold);
    os << ",\"resolve_value\":";
    write_json_double(os, a.resolve_value);
    os << '}';
  }
  os << "]}";
}

Watchdog& watchdog() {
  static Watchdog instance;
  return instance;
}

namespace detail {

void watchdog_apply_env() {
  const char* v = std::getenv("EDGEREP_WATCHDOG");
  const bool on =
      v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  set_watchdog_enabled(on);
  watchdog().begin_run();
}

}  // namespace detail

}  // namespace edgerep::obs
