// A tournament tree that bounds every site's admission fill from below, so
// run_online's site selection (sim/online.cpp) scores only the sites that
// can still win while a dataset's replica budget is unspent.
//
// The fill of a demand needing `need` GHz at a site with effective
// capacity `eff` and load `load` is (load + need) / eff (fill() below).
// Each leaf holds (in_use / eff, 1 / eff) for its site, and each inner
// node the minimum of each over its leaves, so
//
//     min_u + need · min_inv  ≤  fill of every site below the node,
//
// because tentative reservations only add load.  A down site's leaf holds
// +∞ in both; an up site with no capacity holds (kNoCapacityFill, 0),
// which is exactly the fill the selection gives it.  The bound holds in
// exact arithmetic; computed, it may exceed a leaf's computed fill by a few
// ulps, and `in_use` may carry tiny negative residue, so search() skips a
// subtree only when its bound exceeds the best fill by
// kPruneMargin·(1 + |best|).  A site that ties the best fill is never
// skipped.
//
// Memory: two arrays of 2·2^⌈log₂|V|⌉ doubles (32 KB at 1024 sites).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "cloud/types.h"

namespace edgerep {

class SiteFillIndex {
 public:
  /// The fill of an up site with no capacity left (eff == 0).
  static constexpr double kNoCapacityFill = 1e18;
  /// Relative slack a bound must clear before its subtree is skipped.
  static constexpr double kPruneMargin = 1e-12;

  /// The selection's capacity test: `need` more GHz fits at a site holding
  /// `load` with effective capacity `eff`.
  [[nodiscard]] static bool fits(double load, double need, double eff) {
    return load + need <= eff + 1e-9;
  }
  /// The selection's fill of a site the demand fits.
  [[nodiscard]] static double fill(double load, double need, double eff) {
    return eff > 0.0 ? (load + need) / eff : kNoCapacityFill;
  }

  /// Every site starts down; update() brings each one up.
  explicit SiteFillIndex(std::size_t sites)
      : leaves_(std::bit_ceil(std::max<std::size_t>(sites, 1))),
        u_(2 * leaves_, kInf),
        inv_(2 * leaves_, kInf) {}

  /// Re-derive site `s`'s leaf from its state, then its ancestors.
  void update(SiteId s, bool up, double in_use, double eff) {
    std::size_t i = leaves_ + s;
    if (!up) {
      u_[i] = kInf;
      inv_[i] = kInf;
    } else if (eff > 0.0) {
      u_[i] = in_use / eff;
      inv_[i] = 1.0 / eff;
    } else {
      u_[i] = kNoCapacityFill;
      inv_[i] = 0.0;
    }
    for (i /= 2; i > 0; i /= 2) {
      u_[i] = std::min(u_[2 * i], u_[2 * i + 1]);
      inv_[i] = std::min(inv_[2 * i], inv_[2 * i + 1]);
    }
  }

  /// Depth-first, smaller bound first: calls `score(site)` for every up
  /// site whose fill bound does not clear `best` (the caller's best fill so
  /// far, which `score` may lower).  Every site whose fill could beat or
  /// tie `best` when it is reached is scored.
  template <class Score>
  void search(double need, const double& best, Score&& score) const {
    // Each expansion pops one node and pushes at most two children, so the
    // stack never holds more than depth + 1 ≤ 64 entries.
    std::array<std::pair<double, std::size_t>, 64> stack;
    std::size_t top = 0;
    auto push = [&](double bound, std::size_t node) {
      if (!cleared(bound, best)) stack[top++] = {bound, node};
    };
    push(bound(1, need), 1);
    while (top > 0) {
      const auto [b, node] = stack[--top];
      if (cleared(b, best)) continue;  // `best` fell since the push
      if (node >= leaves_) {
        score(static_cast<SiteId>(node - leaves_));
        continue;
      }
      const double left = bound(2 * node, need);
      const double right = bound(2 * node + 1, need);
      if (left <= right) {
        push(right, 2 * node + 1);
        push(left, 2 * node);
      } else {
        push(left, 2 * node);
        push(right, 2 * node + 1);
      }
    }
  }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Lower bound on the fill of every site below `node`; +∞ when all of
  /// them are down (an up leaf keeps min_inv finite).
  [[nodiscard]] double bound(std::size_t node, double need) const {
    return u_[node] == kInf ? kInf : u_[node] + need * inv_[node];
  }
  /// No site with this bound can beat or tie `best`.
  [[nodiscard]] static bool cleared(double bound, double best) {
    return bound == kInf ||
           bound > best + kPruneMargin * (1.0 + std::abs(best));
  }

  std::size_t leaves_;
  std::vector<double> u_;    ///< min in_use / eff; nodes 1 .. 2·leaves_ − 1
  std::vector<double> inv_;  ///< min 1 / eff
};

}  // namespace edgerep
