#include "core/row_source.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

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

RowSource::RowSource(const Instance& inst, bool parallel) : inst_(&inst) {
  if (!inst.finalized()) {
    throw std::invalid_argument("RowSource: instance not finalized");
  }
  const auto sites = inst.sites();
  const auto queries = inst.queries();
  const std::size_t n_sites = sites.size();

  proc_.resize(n_sites);
  double d_min = kInfDelay;  // smallest processing delay (NaN never wins)
  for (const Site& s : sites) {
    proc_[s.id] = s.proc_delay;
    d_min = std::min(d_min, s.proc_delay);
  }

  query_offset_.resize(queries.size() + 1);
  std::size_t slots = 0;
  for (const Query& q : queries) {
    query_offset_[q.id] = slots;
    slots += q.demands.size();
  }
  query_offset_[queries.size()] = slots;

  // Queries sharing a home share the delays to it.  A counting sort
  // buckets them by home, ids ascending within a home.
  home_begin_.assign(n_sites + 1, 0);
  for (const Query& q : queries) ++home_begin_[q.home + 1];
  std::partial_sum(home_begin_.begin(), home_begin_.end(),
                   home_begin_.begin());
  std::vector<std::size_t> next(home_begin_.begin(), home_begin_.end() - 1);
  by_home_.resize(queries.size());
  for (const Query& q : queries) by_home_[next[q.home]++] = q.id;

  // Each home's reaches, walk lengths and list are a pure function of the
  // home, so any split of the homes into blocks builds the same source.
  walk_.resize(slots);
  near_.resize(n_sites);
  const auto home_block = [&](std::size_t begin, std::size_t end) {
    std::vector<std::size_t> slot;           // the home's demand slots
    std::vector<double> reach;               // per slot of the home
    std::vector<double> column(n_sites);     // path delays to the home
    std::vector<SiteId> covered(n_sites);    // sites inside the widest reach
    std::vector<std::size_t> band(n_sites);  // per covered site
    std::vector<std::size_t> band_end;       // per band: sites in bands ≤ it
    std::vector<std::size_t> reaching;       // per band: demands reaching it
    for (std::size_t h = begin; h < end; ++h) {
      slot.clear();
      reach.clear();
      double widest = -1.0;  // the widest finite reach
      for (const QueryId m : homed(static_cast<SiteId>(h))) {
        const Query& q = queries[m];
        std::size_t d = query_offset_[m];
        for (const DatasetDemand& dd : q.demands) {
          const double vol = inst.dataset(dd.dataset).volume;
          const double r =
              reach_of(vol * d_min, dd.selectivity * vol, q.deadline);
          slot.push_back(d++);
          reach.push_back(r);
          if (r < kInfDelay) widest = std::max(widest, r);
        }
      }
      if (slot.empty()) continue;
      std::size_t n_covered = 0;
      double span = 0.0;  // the largest path delay inside the widest reach
      for (std::size_t s = 0; s < n_sites; ++s) {
        column[s] = inst.path_delay(static_cast<SiteId>(s),
                                    static_cast<SiteId>(h));
        const bool inside = column[s] <= widest;
        covered[n_covered] = static_cast<SiteId>(s);
        n_covered += inside ? 1 : 0;
        span = std::max(span, inside ? column[s] : 0.0);
      }
      // Bands split [0, span] into two per demand, so one loose demand does
      // not squeeze the tight ones into one band; reaches past `span` share
      // the last.  band_of is monotone, so the bands up to a reach's own
      // hold every site inside the reach (and a few beyond it, which fail
      // the deadline test).
      const std::size_t bands = 2 * slot.size();
      const double scale = span > 0.0 ? static_cast<double>(bands) / span : 0.0;
      const auto band_of = [&](double x) -> std::size_t {
        if (!(scale < kInfDelay)) return 0;  // a subnormal span
        return static_cast<std::size_t>(
            std::min(x * scale, static_cast<double>(bands - 1)));
      };
      band_end.assign(bands, 0);
      for (std::size_t i = 0; i < n_covered; ++i) {
        band[i] = band_of(column[covered[i]]);
        ++band_end[band[i]];
      }
      std::partial_sum(band_end.begin(), band_end.end(), band_end.begin());
      // A reach below 0 covers no site (an empty walk) and an infinite one
      // every site (a scan); the others may walk.
      reaching.assign(bands, 0);
      std::size_t pruned = 0;
      for (const double r : reach) {
        if (r >= 0.0 && r < kInfDelay) {
          ++reaching[band_of(r)];
          ++pruned;
        }
      }
      // The walkers are the demands reaching the first `top` bands.  Cost,
      // in site tests, of each choice of `top`: lay out the list (2 per
      // entry), walk (2 per walked site) and scan the rest (1 per site).
      std::size_t best = pruned * n_sites;
      std::size_t top = 0;
      std::size_t walkers = 0;
      std::size_t walked = 0;
      for (std::size_t b = 0; b < bands; ++b) {
        walkers += reaching[b];
        walked += reaching[b] * (band_end[b] + 1);
        const std::size_t cost =
            2 * band_end[b] + 2 * walked + (pruned - walkers) * n_sites;
        if (cost < best) {
          best = cost;
          top = b + 1;
        }
      }
      for (std::size_t i = 0; i < slot.size(); ++i) {
        const double r = reach[i];
        if (r < 0.0) {
          walk_[slot[i]] = 0;
        } else if (r < kInfDelay && band_of(r) < top) {
          walk_[slot[i]] = static_cast<std::uint32_t>(band_end[band_of(r)]);
        } else {
          walk_[slot[i]] = kScan;
        }
      }
      // Lay the list out band by band, ids ascending within a band.
      if (top == 0) continue;
      std::vector<Near>& list = near_[h];
      list.resize(band_end[top - 1]);
      for (std::size_t i = n_covered; i-- > 0;) {
        if (band[i] < top) {
          const SiteId s = covered[i];
          list[--band_end[band[i]]] = {column[s], s};
        }
      }
    }
  };
  if (parallel && queries.size() * n_sites > kPooledBuildThreshold) {
    global_pool().parallel_for_blocked(n_sites, home_block);
  } else {
    home_block(0, n_sites);
  }
}

}  // namespace edgerep
