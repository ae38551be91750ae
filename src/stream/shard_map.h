// Region sharding of the placement sites for the streaming admission plane.
//
// A ShardMap partitions the instance's sites into `shards` contiguous,
// balanced id ranges; each ShardEngine then prices its queries only against
// its own partition (plus any boundary sites), so a demand that scans (one
// whose deadline reach does not prune its row) tests roughly 1/shards of
// the sites.
//
// Boundary sites are shared by every shard: each shard may admit onto them,
// and the epoch reconciler arbitrates the resulting contention against the
// global plan's loads.  BoundaryPolicy::kDataCenters shares the
// data-center sites (the big-capacity nodes every region wants to offload
// to) while cloudlets stay region-private; kNone makes the partition total.
//
// The map is a pure function of (instance, shards, policy): fixed inputs
// give the same site partition and query routing on every run, the first
// leg of the streaming plane's determinism contract.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cloud/instance.h"

namespace edgerep {

/// Which sites are shared across all shards.
enum class BoundaryPolicy : std::uint8_t {
  kNone,         ///< total partition: every site belongs to exactly one shard
  kDataCenters,  ///< DC sites are boundary (shared); cloudlets are owned
};

class ShardMap {
 public:
  /// Marker returned by shard_of_site for boundary sites.
  static constexpr std::uint32_t kBoundaryShard =
      static_cast<std::uint32_t>(-1);

  ShardMap(const Instance& inst, std::size_t shards,
           BoundaryPolicy policy = BoundaryPolicy::kNone);

  [[nodiscard]] std::size_t shards() const noexcept { return owned_.size(); }
  [[nodiscard]] BoundaryPolicy policy() const noexcept { return policy_; }

  /// Owning shard of a site, or kBoundaryShard when it is shared.
  [[nodiscard]] std::uint32_t shard_of_site(SiteId s) const {
    return site_shard_.at(s);
  }

  /// Shard that admits query q: the owner of its home site; queries homed on
  /// a boundary site spread round-robin by id so no shard inherits them all.
  [[nodiscard]] std::uint32_t shard_of_query(const Query& q) const {
    const std::uint32_t s = site_shard_.at(q.home);
    return s != kBoundaryShard
               ? s
               : static_cast<std::uint32_t>(q.id % owned_.size());
  }

  /// Sites owned exclusively by `shard`, ascending by id.
  [[nodiscard]] std::span<const SiteId> owned_sites(std::uint32_t shard) const {
    return owned_.at(shard);
  }

  /// Sites shared by every shard, ascending by id.
  [[nodiscard]] std::span<const SiteId> boundary_sites() const noexcept {
    return boundary_;
  }

  /// The candidate universe a shard prices against: owned ∪ boundary,
  /// ascending by id (the argmin visit order).
  [[nodiscard]] std::span<const SiteId> scan_sites(std::uint32_t shard) const {
    return scan_.at(shard);
  }

 private:
  BoundaryPolicy policy_;
  std::vector<std::uint32_t> site_shard_;       ///< per site
  std::vector<std::vector<SiteId>> owned_;      ///< per shard, ascending
  std::vector<SiteId> boundary_;                ///< ascending
  std::vector<std::vector<SiteId>> scan_;       ///< per shard, ascending
};

}  // namespace edgerep
