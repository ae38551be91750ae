// Per-demand candidate-site index for the admission hot path.
//
// For every (query, demand) pair the index precomputes the deadline-feasible
// site list, caching each site's capacity reciprocal and the evaluation
// delay's deadline-relative form, so `admit_demand`'s pricing scan touches
// only feasible sites and never recomputes `volume·proc_delay +
// α·volume·path_delay`.  Per-demand resource needs are cached alongside,
// turning the per-candidate price into three multiply-adds on dynamic dual
// state.
//
// Rows live in one struct-of-arrays layout (site ids, reciprocals, η bases
// in three parallel CSR arrays).  The build buckets queries by home site,
// gathers the delays from every site to a home into one contiguous column,
// and visits every demand twice: once to count its feasible sites (a
// prefix sum of the counts gives every row's final offset) and once to
// fill the row in place.
//
// A demand rarely reaches far.  With d_min the smallest processing delay,
// every feasible site passes the bound fl(fl(vol·d_min) + fl(α·vol·path)) ≤
// deadline: IEEE rounding is monotone, and ISO C++ builds do not contract
// the expression into an FMA, so lowering proc to d_min can only lower the
// computed sum.  The bound is monotone in `path`, so it holds exactly on
// [0, reach] for the demand's reach, the largest such path delay.  A search
// over the bit patterns of doubles finds it, starting at the real-number
// edge (deadline − vol·d_min) / (α·vol): ~4 evaluations per demand.  A home
// group whose demands reach few sites sorts the sites inside its loosest
// reach by path delay once, and each demand walks that list up to its own
// reach, testing each walked site with the unchanged expression
// vol·proc + (α·vol)·path ≤ deadline; a site bitset restores id order.
// Sorting costs ~inside·log(inside) for `inside` sites in the loosest
// reach, and a walk at most `inside` steps per demand, so a group walks
// when 2·inside·(log₂ inside + demands) < demands·sites and otherwise scans
// its whole column per demand.  In the perfbench `admission` shape (1000
// sites, ~19 feasible per demand) a walked demand visits ~20 sites; where
// most sites are feasible (BENCH_appro's GT-ITM cases) nearly every group
// scans.
//
// Candidates are stored in ascending site-id order — the same order the
// naive per-site scan visits them — so strict `<` argmin tie-breaking is
// unchanged and plans are identical to the unindexed implementation.  Both
// sides of the selection build the same rows.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cloud/instance.h"
#include "core/pricing.h"

namespace edgerep {

class CandidateIndex {
 public:
  /// Builds the index for a finalized instance; the per-home sweeps are
  /// independent, so large instances build rows in parallel.  The arrays
  /// are identical for either value of `parallel`.
  explicit CandidateIndex(const Instance& inst, bool parallel = true);

  /// Cached resource_demand(inst, q, q.demands[demand]).
  [[nodiscard]] double need(QueryId m, std::size_t demand) const {
    assert(m + 1 < query_offset_.size() &&
           query_offset_[m] + demand < need_.size());
    return need_[query_offset_[m] + demand];
  }

  /// Cached 1 / max(A(v_l), 1e-12) — hoists the division out of pricing.
  [[nodiscard]] double inv_avail(SiteId l) const {
    assert(l < inv_avail_.size());
    return inv_avail_[l];
  }

  /// Feasible sites for query m's demand at position `demand` in
  /// q.demands, ascending by site id: site ids, pre-gathered capacity
  /// reciprocals, and η bases (delay / deadline) in three contiguous
  /// parallel arrays.  Hot path: unchecked indexing with debug asserts.
  [[nodiscard]] CandidateSoA soa(QueryId m, std::size_t demand) const {
    assert(m + 1 < query_offset_.size());
    const std::size_t slot = query_offset_[m] + demand;
    assert(slot + 1 < slot_begin_.size());
    const std::size_t b = slot_begin_[slot];
    const std::size_t e = slot_begin_[slot + 1];
    return {{soa_site_.get() + b, soa_site_.get() + e},
            {soa_inv_.get() + b, soa_inv_.get() + e},
            {soa_dod_.get() + b, soa_dod_.get() + e}};
  }

  /// Raw per-site availabilities A(v_l), indexed by site id — the kernel's
  /// capacity-check operand (paired with a plan-loads span).
  [[nodiscard]] std::span<const double> avail() const noexcept {
    return avail_;
  }

  /// Total candidate entries (diagnostics / tests).
  [[nodiscard]] std::size_t size() const noexcept {
    return slot_begin_.back();
  }

 private:
  std::vector<std::size_t> query_offset_;   ///< per query: first demand slot
  std::vector<std::size_t> slot_begin_;     ///< CSR offsets into the soa_*
  std::vector<double> need_;                ///< per demand slot
  std::vector<double> inv_avail_;           ///< per site
  std::vector<double> avail_;               ///< per site, raw A(v_l)
  // Allocated without zero-filling: the fill pass writes every entry, so
  // its threads are the first to touch the pages.
  std::unique_ptr<SiteId[]> soa_site_;
  std::unique_ptr<double[]> soa_inv_;  ///< inv_avail_[site], pre-gathered
  std::unique_ptr<double[]> soa_dod_;  ///< delay / deadline
};

}  // namespace edgerep
