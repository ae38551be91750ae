// Plain-text serialization of WorkloadConfig ("key = value" lines, '#'
// comments) so experiment configurations can be archived next to their
// results and replayed exactly.  Unknown keys are rejected — a typo in a
// config file must not silently fall back to a default.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/generator.h"

namespace edgerep {

/// All tunable keys, e.g. "network_size", "dc_capacity.lo", "selectivity.hi".
std::vector<std::string> workload_config_keys();

/// Write every field (one per line, sorted as declared).
void write_workload_config(std::ostream& os, const WorkloadConfig& cfg);

/// Parse a config written by `write_workload_config` (or hand-edited).
/// Starts from defaults; listed keys override.  Throws std::runtime_error
/// ("config: line N: ...") on unknown keys, malformed or non-finite values
/// and bad counts.
WorkloadConfig read_workload_config(std::istream& is);

/// Get/set one field by key (used by CLI overrides like --set key=value).
double get_field(const WorkloadConfig& cfg, const std::string& key);
void set_field(WorkloadConfig& cfg, const std::string& key, double value);

/// The line loop of both `key = value` readers (this one and
/// read_fault_config): '#' starts a comment, blank lines are skipped, and
/// every other line must be `key = value` with one finite number as the
/// value, which `set(key, value)` stores.  Every error, including one
/// `set` throws as std::runtime_error, becomes a std::runtime_error
/// "<prefix>: line N: ...".
void read_config_lines(
    std::istream& is, const std::string& prefix,
    const std::function<void(const std::string&, double)>& set);

/// `v` as a count of `key`.  Throws std::runtime_error unless `v` is a
/// non-negative integer no larger than 2^53, beyond which a double no
/// longer holds every integer exactly.
std::size_t config_count(double v, const char* key);

}  // namespace edgerep
