#include "core/candidate_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "util/thread_pool.h"

namespace edgerep {

namespace {

/// A demand's reach: the largest path delay p with `lower + sel_vol·p ≤
/// deadline` in double arithmetic, -1 when p = 0 already fails and +inf
/// when every p passes.  With finite terms the sum is monotone in p, so the
/// bound holds exactly on [0, reach].  Non-negative doubles order like their
/// bit patterns, so a bisection over the patterns finds the edge in at most
/// 63 steps.  It first gallops from the real-number edge (deadline −
/// lower) / sel_vol, when that is a number: the double edge is usually
/// within an ulp or two of it.  Non-finite terms (an infinite or NaN volume
/// or selectivity) give +inf: the bound is not monotone there, so every
/// site is tested.
double reach_of(double lower, double sel_vol, double deadline) {
  if (!std::isfinite(lower) || !std::isfinite(sel_vol)) return kInfDelay;
  const auto holds = [&](std::uint64_t p) {
    return lower + sel_vol * std::bit_cast<double>(p) <= deadline;
  };
  constexpr auto kInfBits = std::bit_cast<std::uint64_t>(kInfDelay);
  if (!holds(0)) return -1.0;
  if (holds(kInfBits)) return kInfDelay;
  std::uint64_t lo = 0;         // holds(lo)
  std::uint64_t hi = kInfBits;  // !holds(hi)
  const double edge = (deadline - lower) / sel_vol;
  if (edge >= 0.0 && edge < kInfDelay) {  // false for NaN (0 / 0)
    const auto e = std::bit_cast<std::uint64_t>(edge);
    const bool up = holds(e);
    (up ? lo : hi) = e;
    for (std::uint64_t step = 1; step < hi - lo; step *= 2) {
      const std::uint64_t probe = up ? lo + step : hi - step;
      if (holds(probe) != up) {
        (up ? hi : lo) = probe;
        break;
      }
      (up ? lo : hi) = probe;
    }
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (holds(mid) ? lo : hi) = mid;
  }
  return std::bit_cast<double>(lo);
}

}  // namespace

CandidateIndex::CandidateIndex(const Instance& inst, bool parallel) {
  if (!inst.finalized()) {
    throw std::invalid_argument("CandidateIndex: instance not finalized");
  }
  const auto sites = inst.sites();
  const auto queries = inst.queries();
  const std::size_t n_sites = sites.size();

  inv_avail_.resize(n_sites);
  avail_.resize(n_sites);
  std::vector<double> proc(n_sites);
  double d_min = kInfDelay;  // smallest processing delay (NaN never wins)
  for (const Site& s : sites) {
    inv_avail_[s.id] = 1.0 / std::max(s.available, 1e-12);
    avail_[s.id] = s.available;
    proc[s.id] = s.proc_delay;
    d_min = std::min(d_min, s.proc_delay);
  }

  query_offset_.resize(queries.size() + 1);
  std::size_t slots = 0;
  for (const Query& q : queries) {
    query_offset_[q.id] = slots;
    slots += q.demands.size();
  }
  query_offset_[queries.size()] = slots;
  need_.resize(slots);
  slot_begin_.assign(slots + 1, 0);

  SiteId* site_out = nullptr;
  double* inv_out = nullptr;
  double* dod_out = nullptr;

  // Queries sharing a home share the delays to it, so they are visited
  // grouped by home and read one gathered column instead of a strided
  // column of the site-rows table.
  std::vector<QueryId> by_home(queries.size());
  std::iota(by_home.begin(), by_home.end(), QueryId{0});
  std::stable_sort(by_home.begin(), by_home.end(), [&](QueryId a, QueryId b) {
    return queries[a].home < queries[b].home;
  });

  // One visit of every demand.  The count pass (kFill false) stores row
  // lengths one slot up; the fill pass writes each row at its offset.  A
  // site is a candidate when the naive scan's test, vol·proc + (α·vol)·path
  // ≤ deadline in that operation order, holds.  Each home group scans its
  // column or walks it in delay order (see the header); either way a slot's
  // row is a pure function of the slot, so any split of the list into
  // blocks — and so any thread count — builds the same arrays.
  const auto sweep = [&](auto fill) {
    constexpr bool kFill = decltype(fill)::value;
    const auto block = [&](std::size_t begin, std::size_t end) {
      std::vector<double> column(n_sites);
      std::vector<double> reach;  // per demand of the group, in visit order
      std::vector<std::pair<double, SiteId>> near;  // by path delay
      std::vector<std::uint64_t> picked((n_sites + 63) / 64);
      for (std::size_t i = begin, j = begin; i < end; i = j) {
        const SiteId home = queries[by_home[i]].home;
        reach.clear();
        double loosest = -1.0;
        for (; j < end && queries[by_home[j]].home == home; ++j) {
          const Query& q = queries[by_home[j]];
          for (const DatasetDemand& dd : q.demands) {
            const double vol = inst.dataset(dd.dataset).volume;
            reach.push_back(
                reach_of(vol * d_min, dd.selectivity * vol, q.deadline));
            loosest = std::max(loosest, reach.back());
          }
        }
        std::size_t inside = 0;
        for (std::size_t s = 0; s < n_sites; ++s) {
          column[s] = inst.path_delay(static_cast<SiteId>(s), home);
          inside += column[s] <= loosest ? 1 : 0;
        }
        // Sorting costs ~inside·log(inside) once and a walk at most
        // `inside` steps per demand, against n_sites tests per demand.
        const std::size_t demands = reach.size();
        const std::size_t log_inside = std::bit_width(inside);
        const bool walk =
            2 * inside * (log_inside + demands) < demands * n_sites;
        if (walk) {
          near.clear();
          for (std::size_t s = 0; s < n_sites; ++s) {
            if (column[s] <= loosest) {
              near.emplace_back(column[s], static_cast<SiteId>(s));
            }
          }
          std::sort(near.begin(), near.end(),
                    [](const auto& a, const auto& b) {
                      return a.first < b.first;
                    });
        }

        std::size_t d = 0;
        for (std::size_t m = i; m < j; ++m) {
          const Query& q = queries[by_home[m]];
          const double deadline = q.deadline;
          std::size_t slot = query_offset_[q.id];
          for (const DatasetDemand& dd : q.demands) {
            const double vol = inst.dataset(dd.dataset).volume;
            const double sel_vol = dd.selectivity * vol;
            const double r = reach[d++];
            if constexpr (!kFill) need_[slot] = vol * q.rate;
            std::size_t k = kFill ? slot_begin_[slot] : 0;
            const auto emit = [&](std::size_t s, double delay) {
              if constexpr (kFill) {
                site_out[k] = static_cast<SiteId>(s);
                inv_out[k] = inv_avail_[s];
                dod_out[k] = delay / deadline;
              }
              ++k;
            };
            if (!walk) {
              for (std::size_t s = 0; s < n_sites; ++s) {
                const double delay = vol * proc[s] + sel_vol * column[s];
                if (delay <= deadline) emit(s, delay);
              }
            } else {
              // The walk meets sites in delay order; a site bitset puts
              // the row back in id order.
              for (const auto& [path, s] : near) {
                if (path > r) break;
                if (vol * proc[s] + sel_vol * path <= deadline) {
                  picked[s / 64] |= std::uint64_t{1} << (s % 64);
                }
              }
              for (std::size_t word = 0; word < picked.size(); ++word) {
                for (std::uint64_t bits = std::exchange(picked[word], 0);
                     bits != 0; bits &= bits - 1) {
                  const std::size_t s = word * 64 + std::countr_zero(bits);
                  emit(s, vol * proc[s] + sel_vol * column[s]);
                }
              }
            }
            if constexpr (kFill) {
              assert(k == slot_begin_[slot + 1]);
            } else {
              slot_begin_[slot + 1] = k;
            }
            ++slot;
          }
        }
      }
    };
    if (parallel && queries.size() * n_sites > 4096) {
      global_pool().parallel_for_blocked(queries.size(), block);
    } else {
      block(0, queries.size());
    }
  };

  sweep(std::false_type{});
  std::partial_sum(slot_begin_.begin(), slot_begin_.end(),
                   slot_begin_.begin());
  const std::size_t total = slot_begin_[slots];
  soa_site_ = std::make_unique_for_overwrite<SiteId[]>(total);
  soa_inv_ = std::make_unique_for_overwrite<double[]>(total);
  soa_dod_ = std::make_unique_for_overwrite<double[]>(total);
  site_out = soa_site_.get();
  inv_out = soa_inv_.get();
  dod_out = soa_dod_.get();
  sweep(std::true_type{});
}

}  // namespace edgerep
