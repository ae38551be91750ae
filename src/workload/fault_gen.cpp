#include "workload/fault_gen.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/rng.h"
#include "workload/config_io.h"

namespace edgerep {

namespace {

struct Field {
  const char* key;
  std::function<double(const FaultScenarioConfig&)> get;
  std::function<void(FaultScenarioConfig&, double)> set;
};

const std::vector<Field>& fields() {
  static const std::vector<Field> kFields = [] {
    std::vector<Field> f;
    f.push_back({"horizon",
                 [](const FaultScenarioConfig& c) { return c.horizon; },
                 [](FaultScenarioConfig& c, double v) { c.horizon = v; }});
    auto count_field = [&f](const char* key,
                            std::size_t FaultScenarioConfig::*member) {
      f.push_back({key,
                   [member](const FaultScenarioConfig& c) {
                     return static_cast<double>(c.*member);
                   },
                   [member, key](FaultScenarioConfig& c, double v) {
                     c.*member = config_count(v, key);
                   }});
    };
    count_field("site_crashes", &FaultScenarioConfig::site_crashes);
    count_field("link_failures", &FaultScenarioConfig::link_failures);
    count_field("capacity_losses", &FaultScenarioConfig::capacity_losses);
    f.push_back({"mean_repair_time",
                 [](const FaultScenarioConfig& c) { return c.mean_repair_time; },
                 [](FaultScenarioConfig& c, double v) {
                   c.mean_repair_time = v;
                 }});
    f.push_back({"loss_fraction.lo",
                 [](const FaultScenarioConfig& c) { return c.loss_fraction.lo; },
                 [](FaultScenarioConfig& c, double v) {
                   c.loss_fraction.lo = v;
                 }});
    f.push_back({"loss_fraction.hi",
                 [](const FaultScenarioConfig& c) { return c.loss_fraction.hi; },
                 [](FaultScenarioConfig& c, double v) {
                   c.loss_fraction.hi = v;
                 }});
    f.push_back({"cloudlets_only",
                 [](const FaultScenarioConfig& c) {
                   return c.cloudlets_only ? 1.0 : 0.0;
                 },
                 [](FaultScenarioConfig& c, double v) {
                   c.cloudlets_only = v != 0.0;
                 }});
    return f;
  }();
  return kFields;
}

const Field& find_field(const std::string& key) {
  for (const Field& f : fields()) {
    if (key == f.key) return f;
  }
  throw std::runtime_error("unknown key '" + key + "'");
}

/// Indices of the sites a scenario may crash or degrade.
std::vector<SiteId> eligible_sites(const Instance& inst, bool cloudlets_only) {
  std::vector<SiteId> out;
  for (const Site& s : inst.sites()) {
    if (!cloudlets_only || !s.is_data_center()) out.push_back(s.id);
  }
  if (out.empty()) {  // all-DC instance: fall back to the full population
    for (const Site& s : inst.sites()) out.push_back(s.id);
  }
  return out;
}

/// First `n` entries of a Fisher–Yates shuffle: `n` distinct picks.
template <typename T>
std::vector<T> pick_distinct(std::vector<T> pool, std::size_t n, Rng& rng) {
  rng.shuffle(std::span<T>(pool));
  pool.resize(std::min(n, pool.size()));
  return pool;
}

}  // namespace

std::vector<std::string> fault_config_keys() {
  std::vector<std::string> keys;
  keys.reserve(fields().size());
  for (const Field& f : fields()) keys.emplace_back(f.key);
  return keys;
}

double get_fault_field(const FaultScenarioConfig& cfg, const std::string& key) {
  return find_field(key).get(cfg);
}

void set_fault_field(FaultScenarioConfig& cfg, const std::string& key,
                     double value) {
  find_field(key).set(cfg, value);
}

void write_fault_config(std::ostream& os, const FaultScenarioConfig& cfg) {
  os << "# edgerep fault scenario configuration\n";
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const Field& f : fields()) {
    os << f.key << " = " << f.get(cfg) << '\n';
  }
}

FaultScenarioConfig read_fault_config(std::istream& is) {
  FaultScenarioConfig cfg;
  read_config_lines(is, "fault config",
                    [&cfg](const std::string& key, double v) {
                      set_fault_field(cfg, key, v);
                    });
  return cfg;
}

FaultTrace generate_fault_trace(const Instance& inst,
                                const FaultScenarioConfig& cfg,
                                std::uint64_t seed) {
  if (!inst.finalized()) {
    throw std::invalid_argument("generate_fault_trace: instance not finalized");
  }
  if (!(cfg.horizon > 0.0) || !std::isfinite(cfg.horizon)) {
    throw std::invalid_argument("generate_fault_trace: horizon must be > 0");
  }
  if (cfg.mean_repair_time < 0.0) {
    throw std::invalid_argument(
        "generate_fault_trace: mean_repair_time must be >= 0");
  }
  Rng crash_rng(derive_seed(seed, 0));
  Rng link_rng(derive_seed(seed, 1));
  Rng cap_rng(derive_seed(seed, 2));

  std::vector<FaultEvent> events;
  auto with_recovery = [&](FaultEvent down, FaultKind up_kind, Rng& rng) {
    events.push_back(down);
    if (cfg.mean_repair_time > 0.0) {
      FaultEvent up = down;
      up.kind = up_kind;
      up.time = down.time + rng.exponential(1.0 / cfg.mean_repair_time);
      events.push_back(up);
    }
  };

  for (const SiteId s : pick_distinct(eligible_sites(inst, cfg.cloudlets_only),
                                      cfg.site_crashes, crash_rng)) {
    FaultEvent e;
    e.time = crash_rng.uniform(0.0, cfg.horizon);
    e.kind = FaultKind::kSiteDown;
    e.site = s;
    with_recovery(e, FaultKind::kSiteUp, crash_rng);
  }

  std::vector<EdgeId> edge_pool(inst.graph().num_edges());
  std::iota(edge_pool.begin(), edge_pool.end(), EdgeId{0});
  for (const EdgeId eid :
       pick_distinct(std::move(edge_pool), cfg.link_failures, link_rng)) {
    FaultEvent e;
    e.time = link_rng.uniform(0.0, cfg.horizon);
    e.kind = FaultKind::kLinkDown;
    e.edge = eid;
    with_recovery(e, FaultKind::kLinkUp, link_rng);
  }

  for (const SiteId s : pick_distinct(eligible_sites(inst, cfg.cloudlets_only),
                                      cfg.capacity_losses, cap_rng)) {
    FaultEvent e;
    e.time = cap_rng.uniform(0.0, cfg.horizon);
    e.kind = FaultKind::kCapacityLoss;
    e.site = s;
    double frac = cap_rng.uniform(cfg.loss_fraction.lo, cfg.loss_fraction.hi);
    e.fraction = std::clamp(frac, 1e-6, 1.0);
    with_recovery(e, FaultKind::kCapacityRestore, cap_rng);
  }

  // Time-order with a stable tie-break on generation order (so ties resolve
  // identically on every platform).
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (events[a].time != events[b].time) {
      return events[a].time < events[b].time;
    }
    return a < b;
  });
  FaultTrace trace;
  trace.events.reserve(events.size());
  for (const std::size_t i : order) trace.events.push_back(events[i]);
  validate_fault_trace(inst, trace);
  return trace;
}

void write_fault_trace(std::ostream& os, const FaultTrace& trace) {
  os << "# edgerep fault trace: time kind site edge fraction\n";
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const FaultEvent& e : trace.events) {
    os << e.time << ' ' << to_string(e.kind) << ' '
       << static_cast<std::int64_t>(e.site == kInvalidSite
                                        ? -1
                                        : static_cast<std::int64_t>(e.site))
       << ' '
       << static_cast<std::int64_t>(e.edge == kInvalidEdge
                                        ? -1
                                        : static_cast<std::int64_t>(e.edge))
       << ' ' << e.fraction << '\n';
  }
}

FaultTrace read_fault_trace(std::istream& is, const Instance& inst) {
  FaultTrace trace;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string kind;
    FaultEvent e;
    std::int64_t site = -1;
    std::int64_t edge = -1;
    if (!(ls >> e.time)) continue;  // blank line
    if (!(ls >> kind >> site >> edge >> e.fraction)) {
      throw std::runtime_error("fault trace: line " + std::to_string(lineno) +
                               ": expected 'time kind site edge fraction'");
    }
    std::string extra;
    if (ls >> extra) {
      throw std::runtime_error("fault trace: line " + std::to_string(lineno) +
                               ": trailing tokens");
    }
    bool known = false;
    for (std::size_t k = 0; k < kFaultKindCount; ++k) {
      if (kind == to_string(static_cast<FaultKind>(k))) {
        e.kind = static_cast<FaultKind>(k);
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::runtime_error("fault trace: line " + std::to_string(lineno) +
                               ": unknown kind '" + kind + "'");
    }
    if ((site >= 0 && !narrow_id(static_cast<std::uint64_t>(site), e.site)) ||
        (edge >= 0 && !narrow_id(static_cast<std::uint64_t>(edge), e.edge))) {
      throw std::runtime_error("fault trace: line " + std::to_string(lineno) +
                               ": site or edge id out of range");
    }
    trace.events.push_back(e);
  }
  validate_fault_trace(inst, trace);
  return trace;
}

}  // namespace edgerep
