// Continuous query-arrival streams for the streaming admission plane.
//
// A stream assigns every query of a finalized instance one Poisson arrival
// time (exponential inter-arrival gaps at a configurable aggregate rate), so
// the StreamEngine can batch them into fixed-length micro-epochs.  Streams
// are a pure function of (instance, rate, seed, order): the same inputs
// yield the same arrival sequence on every platform, which the determinism
// contract of the streaming plane builds on.
//
// `stream_instance` generates the large flat instances the throughput
// benches run on: a G(n, p) metro network with every node a placement site
// and single-demand queries — the paper's special case at a scale (10k
// sites, 1M queries) where the two-tier GT-ITM construction with pairwise
// link probability 0.2 would produce tens of millions of edges.
#pragma once

#include <cstdint>
#include <vector>

#include "cloud/instance.h"
#include "net/topology.h"

namespace edgerep {

/// One query arrival.  Times are seconds from stream start, nondecreasing.
struct Arrival {
  double time = 0.0;
  QueryId query = 0;
};

/// Which query ids ride the arrival sequence in which order.
enum class ArrivalOrder : std::uint8_t {
  kQueryId,   ///< query 0 arrives first, then 1, ... (aligned with batch order)
  kShuffled,  ///< deterministic Fisher–Yates shuffle of the id sequence
};

/// Generate one arrival per query of `inst` with Poisson timing: gap k is
/// Exponential(rate) drawn from a substream of `seed`, so the arrival times
/// are strictly increasing with aggregate rate `rate` queries/second.
///
/// `wave_amplitude` / `wave_period` (both > 0 to engage) superimpose a
/// diurnal wave on the rate: each gap is divided by
/// 1 + amplitude·sin(2π·t / period), clamped at 0.05 — run_online's
/// modulation (wave_gap, sim/arrivals.h).  The Rng draw sequence is
/// identical either way, so the defaults reproduce every existing stream
/// bit for bit.  Throws std::invalid_argument unless the rate is finite and
/// > 0 and both wave knobs are finite and >= 0.
std::vector<Arrival> generate_arrival_stream(
    const Instance& inst, double rate, std::uint64_t seed,
    ArrivalOrder order = ArrivalOrder::kShuffled, double wave_amplitude = 0.0,
    double wave_period = 0.0);

/// Configuration of the large-scale streaming workload (single-demand
/// queries over a flat G(n, p) site network).
struct StreamWorkloadConfig {
  std::size_t sites = 10'000;     ///< every graph node is a placement site
  double avg_degree = 8.0;        ///< G(n, p) with p = avg_degree / (n - 1)
  std::size_t queries = 1'000'000;
  std::size_t datasets = 64;
  /// Demands per query are drawn uniformly from [1, max_demands] (distinct
  /// datasets).  The default keeps the paper's special case — and the draw
  /// sequence of every existing seed — untouched.
  std::size_t max_demands = 1;
  std::size_t max_replicas = 1024;  ///< K; generous so replication is not the
                                    ///< binding constraint at bench scale

  Range capacity{400.0, 800.0};    ///< GHz per site
  Range proc_delay{0.01, 0.05};    ///< d(v): s per GB
  Range link_delay{0.05, 0.25};    ///< per-GB link delay
  Range volume{1.0, 6.0};          ///< GB
  Range rate{0.75, 1.25};          ///< GHz per GB
  Range selectivity{0.05, 0.8};    ///< α
  /// Deadline = draw × demanded volume.  Loose by default so deadline
  /// pruning leaves most sites feasible and the candidate scan — the cost
  /// the sharded plane divides — dominates.
  Range deadline_per_gb{1.0, 3.0};

  /// Skewed, drifting dataset popularity (the watchdog's flash-crowd
  /// workload).  When zipf_exponent > 0, each query's dataset is drawn
  /// Zipf(zipf_exponent) over a rank ring instead of uniformly: dataset
  /// (rank − 1 + rotation) mod datasets, where the rotation advances by one
  /// every zipf_drift_period queries (0 = the hot set never moves).  The
  /// Zipf draws come from their own derive_seed substream; with the
  /// exponent at its 0 default every draw, and hence every existing
  /// (config, seed) instance, is bit-for-bit unchanged.
  double zipf_exponent = 0.0;
  std::size_t zipf_drift_period = 0;
};

/// Deterministically generate a finalized instance from the config.
Instance stream_instance(const StreamWorkloadConfig& cfg, std::uint64_t seed);

}  // namespace edgerep
