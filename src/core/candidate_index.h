// Per-demand candidate-site index for the admission hot path.
//
// For every (query, demand) pair the index precomputes the deadline-feasible
// site list and the evaluation delay's deadline-relative form, so the
// admission step's pricing scan (`admit_demand`, core/admission.h) touches
// only feasible sites and never recomputes
// `volume·proc_delay + α·volume·path_delay`.  Per-demand resource needs and
// the instance's SiteAvailability (A(v_l) and its reciprocal) are cached
// alongside, turning the per-candidate price into three multiply-adds on
// dynamic dual state.  Batch Appro feeds the rows to the step as they are;
// repair feeds the ones its fault filter keeps (a fault-free row is a
// superset of the faulted one) and prices them against its own effective
// SiteAvailability.
//
// Rows live in one struct-of-arrays layout (site ids and η bases in two
// parallel CSR arrays) and come from a RowSource (core/row_source.h), the
// row source every admission path uses; the index keeps it for the build
// only.  The source computes each demand's deadline reach once, and per
// home keeps the sites inside a walk cap, laid out in delay bands.  The
// choice is per demand: a demand whose reach lies within its home's cap
// walks that list through its reach's band, which holds every site its
// reach covers; any other demand scans every site.  The cap minimises a
// cost in site tests (list layout + Σ walks + Σ scans) computed from one
// pass of each home's delay column against the home's reaches.  In the
// perfbench `admission` shape (1000 sites, ~19 feasible per demand) 99.6%
// of the demands walk ~22 sites; where most sites are feasible
// (BENCH_appro's GT-ITM cases) the homes keep no list and every demand
// scans.
//
// The build visits the demands home by home, twice: once to count each
// row (a prefix sum of the counts gives every row's offset) and once to
// fill it in place.  A home's demands share its list, and its scanning
// demands share one gathered column of delays to it.  A home's queries lie
// spread over the id range, so both sweeps look ahead over them: a few
// queries ahead they ask for the query record and the source's offsets,
// nearer for the demand list, walk lengths and slots, and (filling) the
// output lines.  The admission loop reads the index through the
// prefetch_* hints below in the same staged way, in volume order.
//
// Candidates are stored in ascending site-id order — the same order the
// naive per-site scan visits them — so strict `<` argmin tie-breaking is
// unchanged and plans are identical to the unindexed implementation.  Both
// sides of the per-demand choice build the same rows.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cloud/instance.h"
#include "core/pricing.h"
#include "util/prefetch.h"

namespace edgerep {

class CandidateIndex {
 public:
  /// Builds the index for a finalized instance (throws
  /// std::invalid_argument otherwise); homes are independent, so large
  /// instances build rows in parallel.  The arrays are identical for either
  /// value of `parallel`.
  explicit CandidateIndex(const Instance& inst, bool parallel = true);

  /// Cached resource_demand(inst, q, q.demands[demand]).
  [[nodiscard]] double need(QueryId m, std::size_t demand) const {
    assert(m + 1 < query_offset_.size() &&
           query_offset_[m] + demand < query_offset_[m + 1]);
    return need_[query_offset_[m] + demand];
  }

  /// The instance's availabilities A(v_l) and their reciprocals — the
  /// kernel's capacity operands, gathered by site id.
  [[nodiscard]] const SiteAvailability& availability() const noexcept {
    return avail_;
  }

  /// Feasible sites for query m's demand at position `demand` in
  /// q.demands, ascending by site id: site ids and η bases (delay /
  /// deadline) in two contiguous parallel arrays.  Hot path: unchecked
  /// indexing with debug asserts.
  [[nodiscard]] CandidateSoA soa(QueryId m, std::size_t demand) const {
    assert(m + 1 < query_offset_.size());
    const std::size_t slot = query_offset_[m] + demand;
    assert(slot + 1 < slot_begin_.size());
    const std::size_t b = slot_begin_[slot];
    const std::size_t e = slot_begin_[slot + 1];
    return {{soa_site_.get() + b, soa_site_.get() + e},
            {soa_dod_.get() + b, soa_dod_.get() + e}};
  }

  /// Total candidate entries (diagnostics / tests).
  [[nodiscard]] std::size_t size() const noexcept {
    return slot_begin_.back();
  }

  /// Prefetch hints for a loop that prices query m a few steps later.  Each
  /// reads only lines an earlier one asked for: the query's slot offset,
  /// then its slots' row bounds and needs, then the front of its rows' site
  /// ids and η bases.  m must name a query of the instance.
  void prefetch_offset(QueryId m) const noexcept {
    prefetch(&query_offset_[m]);
  }
  void prefetch_slots(QueryId m) const noexcept {
    const std::size_t slot = query_offset_[m];
    prefetch(&slot_begin_[slot]);
    if (slot < need_.size()) prefetch(&need_[slot]);
  }
  void prefetch_rows(QueryId m) const noexcept {
    const std::size_t b = slot_begin_[query_offset_[m]];
    const std::size_t n = slot_begin_[query_offset_[m + 1]] - b;
    prefetch_lines(soa_site_.get() + b, n, kRowLines);
    prefetch_lines(soa_dod_.get() + b, n, kRowLines);
  }

 private:
  /// Lines of each row array prefetch_rows asks for: a query's rows hold
  /// ~19 entries per demand, and the hardware prefetcher takes over a
  /// longer row once the loop streams through it.
  static constexpr std::size_t kRowLines = 4;

  std::vector<std::size_t> query_offset_;   ///< per query: first demand slot
  std::vector<std::size_t> slot_begin_;     ///< CSR offsets into the soa_*
  std::vector<double> need_;                ///< per demand slot
  SiteAvailability avail_;
  // Allocated without zero-filling: the fill pass writes every entry, so
  // its threads are the first to touch the pages.
  std::unique_ptr<SiteId[]> soa_site_;
  std::unique_ptr<double[]> soa_dod_;  ///< delay / deadline
};

}  // namespace edgerep
