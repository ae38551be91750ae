// Random fault scenarios for an instance — the failure-injection analogue of
// the workload generator.
//
// A scenario draws a fixed number of site crashes, link failures, and
// capacity-degradation episodes uniformly over the horizon, each followed by
// its recovery after an exponentially distributed downtime.  Every draw
// derives from one 64-bit seed through independent substreams
// (`derive_seed`), so a trace is a pure function of (instance, config, seed)
// and can be archived next to the experiment results and replayed bit-exactly
// — the same contract the arrival process honors (sim/online.h).
//
// Distinct components fail per scenario: a scenario with three site crashes
// picks three *different* sites (capped at the eligible population), so the
// blast radius is predictable from the config.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cloud/instance.h"
#include "net/topology.h"
#include "sim/faults.h"

namespace edgerep {

struct FaultScenarioConfig {
  /// Faults strike uniformly in [0, horizon) seconds; recoveries may land
  /// past the horizon (a simulator simply never reaches them).
  double horizon = 50.0;

  std::size_t site_crashes = 1;
  std::size_t link_failures = 0;
  std::size_t capacity_losses = 0;

  /// Mean of the exponential downtime before the matching recovery event.
  /// 0 disables recovery: the component stays failed forever.
  double mean_repair_time = 10.0;

  /// Fraction of availability lost in a capacity-degradation episode.
  Range loss_fraction{0.3, 0.7};

  /// Restrict crashes and degradation to cloudlets (data centers are
  /// hardened).  Ignored when the instance has no cloudlet sites.
  bool cloudlets_only = true;
};

/// All tunable keys, e.g. "horizon", "loss_fraction.lo".
std::vector<std::string> fault_config_keys();

/// "key = value" serialization, read by the workload config's line reader
/// (read_config_lines, workload/config_io.h) with errors prefixed
/// "fault config: line N:".
void write_fault_config(std::ostream& os, const FaultScenarioConfig& cfg);
FaultScenarioConfig read_fault_config(std::istream& is);

double get_fault_field(const FaultScenarioConfig& cfg, const std::string& key);
void set_fault_field(FaultScenarioConfig& cfg, const std::string& key,
                     double value);

/// Deterministically draw a validated, time-ordered trace for `inst`.
FaultTrace generate_fault_trace(const Instance& inst,
                                const FaultScenarioConfig& cfg,
                                std::uint64_t seed);

/// Archive / replay a concrete trace ("time kind site edge fraction" rows,
/// '#' comments).  Reading validates against the instance.
void write_fault_trace(std::ostream& os, const FaultTrace& trace);
FaultTrace read_fault_trace(std::istream& is, const Instance& inst);

}  // namespace edgerep
