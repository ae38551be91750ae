// Vectorized dual-pricing kernel of the Appro-S admission step.
//
// The per-candidate price of serving a demand at site l is
//
//   p(l) = θ_l + need·(1/A(v_l)) + η·(delay_l/deadline) [+ μ/K if fresh]
//
// and the admission step (`admit_demand`, core/admission.h) is an argmin
// over the demand's candidate row with feasibility masking (existing
// replica or budget left, residual capacity fits).  Batch Appro, repair and
// the stream shards all price through this kernel; they differ only in the
// row and the per-site state they feed it.  The kernel lays each row out as
// struct-of-arrays (site ids, η bases) and computes every candidate's price
// in one branch-light pass over contiguous buffers, gathering the per-site
// state (θ, capacity reciprocal, availability, committed load, a replica
// byte-mask) by site id.  A(v_l) is the instance's availability for batch
// Appro and the shards and the effective one (A·scale under capacity
// faults) for repair; `SiteAvailability` computes the reciprocal for all
// of them.
//
// Equivalence contract: the kernel performs *exactly* the reference walk's
// floating-point operations in the same order — `θ + need·inv + η·dod`, a
// conditional `+ μ` (adding 0.0 keeps bits: every term is ≥ 0), and the
// `fits` comparison against `(available − load) + kCapacityEps` — and its
// strict `<` argmin visits candidates in the same ascending-site order, so
// winner and price are bit-identical to the reference, ties broken by
// candidate order.  tests/core/pricing_test.cpp pins this over randomized
// instances; bench/micro_stream.cpp measures the speedup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cloud/plan.h"
#include "cloud/types.h"

namespace edgerep {

/// Weight η of the deadline-tightness term in the site price (DESIGN.md §1).
inline constexpr double kEtaWeight = 0.25;
/// Weight μ of the replica-creation surcharge; a fresh replica pays μ/K.
inline constexpr double kReplicaWeight = 0.5;

/// Per-site availability A(v_l) and the capacity reciprocal the kernel
/// gathers, 1 / max(A(v_l), 1e-12), computed here and nowhere else.
class SiteAvailability {
 public:
  /// The availabilities of `inst`'s sites, each times scale(l) when a scale
  /// is given (repair's effective availability under capacity faults).
  explicit SiteAvailability(const Instance& inst,
                            const std::function<double(SiteId)>& scale = {});

  [[nodiscard]] std::span<const double> avail() const noexcept {
    return avail_;
  }
  [[nodiscard]] std::span<const double> inv() const noexcept { return inv_; }

 private:
  std::vector<double> avail_;
  std::vector<double> inv_;
};

/// Struct-of-arrays view of one demand's pruned candidate list.  Both spans
/// have equal length; entry i describes the i-th deadline-feasible site in
/// ascending site-id order.
struct CandidateSoA {
  std::span<const SiteId> site;        ///< candidate site ids
  std::span<const double> dod;         ///< delay / deadline (the η base)

  [[nodiscard]] std::size_t size() const noexcept { return site.size(); }
};

/// Per-site state the kernel gathers by site id.  `avail` and `load` back
/// the capacity check `need ≤ (avail[s] − load[s]) + kCapacityEps`;
/// `replica` is a byte-mask (1 = site holds a replica of the demanded
/// dataset) over all sites, maintained by the caller (see
/// ReplicaMaskWorkspace).
struct PricingState {
  std::span<const double> theta;         ///< per site: dual capacity price
  std::span<const double> inv_avail;     ///< per site: SiteAvailability::inv
  std::span<const double> avail;         ///< per site: SiteAvailability::avail
  std::span<const double> load;          ///< per site: committed load
  std::span<const std::uint8_t> replica; ///< per site: replica mask bytes
  bool budget_left = true;               ///< replica budget K not exhausted
};

/// Argmin result.  `candidate == kNoCandidate` when no feasible site exists.
struct PricedChoice {
  static constexpr std::size_t kNoCandidate = static_cast<std::size_t>(-1);
  std::size_t candidate = kNoCandidate;  ///< index into the SoA arrays
  SiteId site = kInvalidSite;
  double price = 0.0;
  bool needs_replica = false;
};

/// One branch-light pass over the SoA buffers: price every candidate, mask
/// infeasible ones, and return the strict-< argmin (first winner on ties).
PricedChoice price_candidates(const CandidateSoA& soa,
                              const PricingState& state, double need,
                              double eta_weight, double mu_term);

/// Inputs of the reference oracle — the pre-kernel `site_price` walk, which
/// asked the *plan* per candidate: replica membership is a linear scan of
/// the demanded dataset's replica site list (`ReplicaPlan::has_replica`),
/// not an O(1) byte-mask probe.  The kernel's PricingState flattens exactly
/// this list into ReplicaMaskWorkspace bytes.
struct ReferencePricingState {
  std::span<const double> theta;         ///< per site: dual capacity price
  std::span<const double> inv_avail;     ///< per site: 1 / max(A(v_l), 1e-12)
  std::span<const double> avail;         ///< per site: A(v_l), raw
  std::span<const double> load;          ///< per site: committed load
  std::span<const SiteId> replicas;      ///< sites holding the dataset
  bool budget_left = true;               ///< replica budget K not exhausted
};

/// Reference oracle: the original per-candidate walk, bit-identical to the
/// kernel by construction (same FP sequence, same strict-< argmin) but with
/// the plan-shaped replica scan.  It is the oracle of the randomized
/// bit-identity suite and the speedup denominator committed in
/// BENCH_throughput.json; no admission path runs it.
PricedChoice price_candidates_reference(const CandidateSoA& soa,
                                        const ReferencePricingState& state,
                                        double need, double eta_weight,
                                        double mu_term);

/// Reusable per-site replica byte-mask.  The kernel needs O(1) "does site s
/// hold a replica of dataset n" lookups; plans store replica lists (a few
/// entries), so callers set the listed sites before pricing and clear them
/// after — O(K) per demand instead of O(candidates·K) scalar scans.
class ReplicaMaskWorkspace {
 public:
  void resize(std::size_t sites) { mask_.assign(sites, 0); }

  /// Mark every site in `sites` as holding a replica.
  void set(std::span<const SiteId> sites) {
    for (const SiteId s : sites) mask_[s] = 1;
  }

  /// Clear exactly the sites set since the last clear (callers pass the same
  /// lists back; the mask itself keeps no touch journal).
  void clear(std::span<const SiteId> sites) {
    for (const SiteId s : sites) mask_[s] = 0;
  }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return mask_;
  }
  [[nodiscard]] bool test(SiteId s) const noexcept { return mask_[s] != 0; }

 private:
  std::vector<std::uint8_t> mask_;
};

}  // namespace edgerep
