// One source of deadline-feasible candidate rows for the admission paths.
// The batch CandidateIndex fills its CSR from it, and each stream shard
// takes a demand's row from it, restricted to the shard's scan set.
//
// A demand rarely reaches far.  With d_min the smallest processing delay,
// every feasible site passes the bound fl(fl(vol·d_min) + fl(α·vol·path)) ≤
// deadline: IEEE rounding is monotone, and ISO C++ builds do not contract
// the expression into an FMA, so lowering proc to d_min can only lower the
// computed sum.  The bound is monotone in `path`, so it holds exactly on
// [0, reach] for the demand's reach, the largest such path delay.  A search
// over the bit patterns of doubles finds it, starting at the real-number
// edge (deadline − vol·d_min) / (α·vol): ~4 evaluations per demand.
//
// The build buckets the queries by home with a counting sort.  Then it visits
// each home once, in one pass of the pool: it computes the reach of every
// demand homed there, gathers the home's delay column and splits [0, span],
// span the largest path delay inside the home's widest finite reach, into two
// delay bands per demand.  One pass of the column counts the sites in each
// band, and each reach falls in a band too.  Banding is monotone, so the bands
// up to a reach's own hold every site inside the reach, and a few past it,
// which fail the deadline test as every site past the reach does.  That gives
// every demand's walk length, and the list length a walk cap at any band
// needs.  Costed in site tests, a walk costs ~2 per walked site, a scan one
// per site of the universe, and a list ~2 per entry to lay out; the build
// keeps the cheapest cap.  The demands reaching bands under it walk and the
// rest scan: the choice is made per demand.  Bands split the sites' delays,
// not the widest reach, so one loose demand at a home does not squeeze the
// tight ones beside it into one band and onto the scan.  The home's list holds
// the sites of the bands under the cap, band by band and ascending by id
// within a band, and a walk is the list's prefix of its length: it tests each
// site with the unchanged expression vol·proc + (α·vol)·path ≤ deadline, and a
// site bitset restores id order.
//
// A scanning demand tests every site of the caller's candidate universe.
// Where no cap beats scanning (most sites feasible, as in BENCH_appro's
// GT-ITM cases and BENCH_throughput's stream cases) a home keeps no list.
// In the perfbench `admission` shape (1000 sites, ~19 feasible per demand)
// 99.6% of the demands walk ~22 sites.  A list never holds more sites than
// the longest walk at its home, so the lists together hold at most one walk
// per home: there is no sites² structure.
//
// Every row holds the same sites, in id order, with the same delays as the
// naive per-site scan, and the source is a pure function of the instance:
// any thread count builds the same one.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cloud/instance.h"
#include "util/prefetch.h"

namespace edgerep {

/// RowSource and CandidateIndex build on the global pool only above this
/// many queries × sites.  Below it the pool costs more than the work: a
/// pooled index build takes 1.5–2.1× the serial one at BENCH_appro's
/// 64-node shape (15k), breaks even around 35k–47k (0.7–1.2×), and wins
/// from there on (0.56–0.66× at 150k, 0.31–0.48× at 500k–5M; 4 cores,
/// medians of 200+ builds each).
inline constexpr std::size_t kPooledBuildThreshold = 40'000;

class RowSource {
 public:
  /// Reusable buffers of row(), one per thread: the walk's site bitset and
  /// the delays of the sites it picked.
  class Scratch {
   public:
    explicit Scratch(std::size_t sites)
        : picked_((sites + 63) / 64), delay_(sites) {}

   private:
    friend class RowSource;
    std::vector<std::uint64_t> picked_;
    std::vector<double> delay_;
  };

  /// Builds the source for a finalized instance (throws
  /// std::invalid_argument otherwise); queries and homes are independent,
  /// so large instances build in parallel, with the same result.
  explicit RowSource(const Instance& inst, bool parallel = true);

  /// Slot of query m's demand at position `demand` in q.demands; the slots
  /// of one query are contiguous, in demand order.
  [[nodiscard]] std::size_t slot(QueryId m, std::size_t demand) const {
    assert(m + 1 < query_offset_.size() &&
           query_offset_[m] + demand < query_offset_[m + 1]);
    return query_offset_[m] + demand;
  }
  /// Per query its first slot, then the slot count: query m's slots are
  /// [offsets()[m], offsets()[m + 1]).
  [[nodiscard]] std::span<const std::size_t> offsets() const noexcept {
    return query_offset_;
  }

  /// Queries homed at site h, ascending by id.
  [[nodiscard]] std::span<const QueryId> homed(SiteId h) const {
    assert(h + 1 < home_begin_.size());
    return {by_home_.data() + home_begin_[h],
            by_home_.data() + home_begin_[h + 1]};
  }

  /// Prefetch hints for a loop that takes query m's rows a few steps
  /// later: first its slot offset, then (once that has arrived) its walk
  /// lengths, and the front of its home's list.  m must name a query of the
  /// instance and home a site.
  void prefetch_offset(QueryId m) const noexcept {
    prefetch(&query_offset_[m]);
  }
  void prefetch_walks(QueryId m) const noexcept {
    const std::size_t slot = query_offset_[m];
    if (slot < walk_.size()) prefetch(&walk_[slot]);
  }
  void prefetch_list(SiteId home) const noexcept {
    prefetch_lines(near_[home].data(), near_[home].size(), kListLines);
  }

  /// Whether the demand in `slot` walks its home's list.
  [[nodiscard]] bool walks(std::size_t slot) const {
    assert(slot < walk_.size());
    return walk_[slot] != kScan;
  }

  /// Hands query q's demand `demand` its deadline-feasible sites, ascending
  /// by id, as emit(site, delay) with delay = vol·proc + (α·vol)·path.  A
  /// walking demand visits the sites its reach covers and keeps those where
  /// keep(site) holds; a scanning demand tests every site of `scan`
  /// (ascending ids), reading path delays to its home through path(site).
  /// Both sides must describe one candidate universe.
  template <class Keep, class Path, class Emit>
  void row(const Query& q, std::size_t demand, std::span<const SiteId> scan,
           Keep&& keep, Path&& path, Scratch& scratch, Emit&& emit) const {
    const DatasetDemand& dd = q.demands[demand];
    const double vol = inst_->dataset(dd.dataset).volume;
    const double sel_vol = dd.selectivity * vol;
    const double deadline = q.deadline;
    const std::uint32_t walk = walk_[slot(q.id, demand)];
    if (walk == kScan) {
      for (const SiteId l : scan) {
        const double delay = vol * proc_[l] + sel_vol * path(l);
        if (delay <= deadline) emit(l, delay);
      }
      return;
    }
    // Branch-free walk: every walked site records its delay, and the
    // bitset marks the kept ones that meet the deadline.
    std::uint64_t* const picked = scratch.picked_.data();
    std::size_t lo = scratch.picked_.size();
    std::size_t hi = 0;
    for (const Near& e : std::span(near_[q.home]).first(walk)) {
      const double delay = vol * proc_[e.site] + sel_vol * e.path;
      const bool take = static_cast<bool>(keep(e.site)) & (delay <= deadline);
      const std::size_t word = e.site / 64;
      picked[word] |= std::uint64_t{take} << (e.site % 64);
      scratch.delay_[e.site] = delay;
      lo = take ? std::min(lo, word) : lo;
      hi = take ? std::max(hi, word) : hi;
    }
    for (std::size_t word = lo; word <= hi; ++word) {
      for (std::uint64_t bits = picked[word]; bits != 0; bits &= bits - 1) {
        const auto l = static_cast<SiteId>(word * 64 + std::countr_zero(bits));
        emit(l, scratch.delay_[l]);
      }
      picked[word] = 0;
    }
  }

 private:
  /// A site inside its home's walk cap, with its path delay to the home.
  struct Near {
    double path;
    SiteId site;
  };

  /// walk_ entry of a demand that scans.
  static constexpr std::uint32_t kScan = static_cast<std::uint32_t>(-1);
  /// Lines of a home's list prefetch_list asks for: the front of a walk
  /// (~22 sites of 16 bytes); the hardware prefetcher follows the rest.
  static constexpr std::size_t kListLines = 2;

  const Instance* inst_;
  std::vector<double> proc_;               ///< per site: proc_delay
  std::vector<std::size_t> query_offset_;  ///< per query: first slot
  std::vector<std::uint32_t> walk_;        ///< per slot: walk length or kScan
  std::vector<std::size_t> home_begin_;    ///< per home: into by_home_
  std::vector<QueryId> by_home_;           ///< query ids grouped by home
  std::vector<std::vector<Near>> near_;    ///< per home: sites inside its cap
};

}  // namespace edgerep
