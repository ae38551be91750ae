#include "workload/config_io.h"

#include <cmath>
#include <cstdint>
#include <functional>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace edgerep {

namespace {

/// A count of things with 32-bit ids (nodes, datasets, queries): every id
/// must fit below the all-ones sentinel (cloud/types.h `narrow_id`).  The
/// generator checks min <= max, so bounding the max keys bounds them all.
std::size_t id_count(double v, const char* key) {
  const std::size_t n = config_count(v, key);
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error(std::string(key) +
                             " must be at most 2^32 - 1 (32-bit ids)");
  }
  return n;
}

struct Field {
  const char* key;
  std::function<double(const WorkloadConfig&)> get;
  std::function<void(WorkloadConfig&, double)> set;
};

const std::vector<Field>& fields() {
  auto range_fields = [](const char* lo_key, const char* hi_key,
                         Range WorkloadConfig::*member,
                         std::vector<Field>& out) {
    out.push_back({lo_key,
                   [member](const WorkloadConfig& c) { return (c.*member).lo; },
                   [member](WorkloadConfig& c, double v) { (c.*member).lo = v; }});
    out.push_back({hi_key,
                   [member](const WorkloadConfig& c) { return (c.*member).hi; },
                   [member](WorkloadConfig& c, double v) { (c.*member).hi = v; }});
  };
  static const std::vector<Field> kFields = [&] {
    std::vector<Field> f;
    auto count_field = [&f](const char* key,
                            std::size_t WorkloadConfig::*member,
                            std::size_t (*count)(double, const char*) =
                                config_count) {
      f.push_back({key,
                   [member](const WorkloadConfig& c) {
                     return static_cast<double>(c.*member);
                   },
                   [member, key, count](WorkloadConfig& c, double v) {
                     c.*member = count(v, key);
                   }});
    };
    count_field("network_size", &WorkloadConfig::network_size, id_count);
    f.push_back({"topology.link_prob",
                 [](const WorkloadConfig& c) { return c.topology.link_prob; },
                 [](WorkloadConfig& c, double v) { c.topology.link_prob = v; }});
    f.push_back({"topology.metro_delay.lo",
                 [](const WorkloadConfig& c) { return c.topology.metro_delay.lo; },
                 [](WorkloadConfig& c, double v) { c.topology.metro_delay.lo = v; }});
    f.push_back({"topology.metro_delay.hi",
                 [](const WorkloadConfig& c) { return c.topology.metro_delay.hi; },
                 [](WorkloadConfig& c, double v) { c.topology.metro_delay.hi = v; }});
    f.push_back({"topology.wan_delay.lo",
                 [](const WorkloadConfig& c) { return c.topology.wan_delay.lo; },
                 [](WorkloadConfig& c, double v) { c.topology.wan_delay.lo = v; }});
    f.push_back({"topology.wan_delay.hi",
                 [](const WorkloadConfig& c) { return c.topology.wan_delay.hi; },
                 [](WorkloadConfig& c, double v) { c.topology.wan_delay.hi = v; }});
    range_fields("dc_capacity.lo", "dc_capacity.hi",
                 &WorkloadConfig::dc_capacity, f);
    range_fields("cl_capacity.lo", "cl_capacity.hi",
                 &WorkloadConfig::cl_capacity, f);
    range_fields("dc_proc_delay.lo", "dc_proc_delay.hi",
                 &WorkloadConfig::dc_proc_delay, f);
    range_fields("cl_proc_delay.lo", "cl_proc_delay.hi",
                 &WorkloadConfig::cl_proc_delay, f);
    range_fields("dataset_volume.lo", "dataset_volume.hi",
                 &WorkloadConfig::dataset_volume, f);
    range_fields("rate.lo", "rate.hi", &WorkloadConfig::rate, f);
    range_fields("selectivity.lo", "selectivity.hi",
                 &WorkloadConfig::selectivity, f);
    range_fields("deadline_per_gb.lo", "deadline_per_gb.hi",
                 &WorkloadConfig::deadline_per_gb, f);
    count_field("min_datasets", &WorkloadConfig::min_datasets);
    count_field("max_datasets", &WorkloadConfig::max_datasets, id_count);
    count_field("min_queries", &WorkloadConfig::min_queries);
    count_field("max_queries", &WorkloadConfig::max_queries, id_count);
    count_field("min_datasets_per_query",
                &WorkloadConfig::min_datasets_per_query);
    count_field("max_datasets_per_query",
                &WorkloadConfig::max_datasets_per_query);
    count_field("max_replicas", &WorkloadConfig::max_replicas);
    f.push_back({"home_at_cloudlet",
                 [](const WorkloadConfig& c) { return c.home_at_cloudlet; },
                 [](WorkloadConfig& c, double v) { c.home_at_cloudlet = v; }});
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

}  // namespace

std::vector<std::string> workload_config_keys() {
  std::vector<std::string> keys;
  keys.reserve(fields().size());
  for (const Field& f : fields()) keys.emplace_back(f.key);
  return keys;
}

double get_field(const WorkloadConfig& cfg, const std::string& key) {
  return find_field(key).get(cfg);
}

void set_field(WorkloadConfig& cfg, const std::string& key, double value) {
  find_field(key).set(cfg, value);
}

void write_workload_config(std::ostream& os, const WorkloadConfig& cfg) {
  os << "# edgerep workload configuration\n";
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const Field& f : fields()) {
    os << f.key << " = " << f.get(cfg) << '\n';
  }
}

WorkloadConfig read_workload_config(std::istream& is) {
  WorkloadConfig cfg;
  read_config_lines(is, "config", [&cfg](const std::string& key, double v) {
    set_field(cfg, key, v);
  });
  return cfg;
}

void read_config_lines(
    std::istream& is, const std::string& prefix,
    const std::function<void(const std::string&, double)>& set) {
  auto trim = [](const std::string& s) {
    const auto a = s.find_first_not_of(" \t");
    const auto b = s.find_last_not_of(" \t");
    return a == std::string::npos ? std::string{} : s.substr(a, b - a + 1);
  };
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t") == std::string::npos) continue;
    const std::string at = prefix + ": line " + std::to_string(lineno) + ": ";
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error(at + "expected 'key = value'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    double v = 0.0;
    try {
      std::size_t pos = 0;
      v = std::stod(value, &pos);
      if (pos != value.size()) throw std::invalid_argument(value);
    } catch (const std::logic_error&) {  // invalid_argument, out_of_range
      throw std::runtime_error(at + "malformed value '" + value + "'");
    }
    if (!std::isfinite(v)) {
      throw std::runtime_error(at + "value '" + value + "' is not finite");
    }
    try {
      set(key, v);
    } catch (const std::runtime_error& e) {  // unknown key, bad count
      throw std::runtime_error(at + e.what());
    }
  }
}

std::size_t config_count(double v, const char* key) {
  if (!(v >= 0.0 && v <= 0x1p53) || v != std::floor(v)) {
    throw std::runtime_error(std::string(key) +
                             " must be an integer in [0, 2^53]");
  }
  return static_cast<std::size_t>(v);
}

}  // namespace edgerep
