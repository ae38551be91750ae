// SiteFillIndex against a brute-force (fill, site) argmin: the search must
// return the same winner as scanning every site, with the scorer
// run_online's site selection uses (capacity test with tentative load,
// then fill, then the deadline only for a site that beats the best).
#include "sim/site_fill_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace edgerep {
namespace {

struct SiteState {
  bool up = true;
  double in_use = 0.0;
  double eff = 0.0;
  double tentative = 0.0;
  bool deadline_ok = true;
};

struct Winner {
  SiteId site = kInvalidSite;
  double fill = std::numeric_limits<double>::infinity();
};

Winner brute_force(const std::vector<SiteState>& sites, double need) {
  Winner w;
  for (SiteId s = 0; s < sites.size(); ++s) {
    const SiteState& st = sites[s];
    const double load = st.in_use + st.tentative;
    if (!st.up || !SiteFillIndex::fits(load, need, st.eff)) continue;
    if (!st.deadline_ok) continue;
    const double fill = SiteFillIndex::fill(load, need, st.eff);
    if (fill < w.fill || (fill == w.fill && s < w.site)) w = {s, fill};
  }
  return w;
}

Winner search(const SiteFillIndex& index, const std::vector<SiteState>& sites,
              double need, std::size_t* scored) {
  Winner w;
  index.search(need, w.fill, [&](SiteId s) {
    ++*scored;
    const SiteState& st = sites.at(s);
    EXPECT_TRUE(st.up) << "scored a down site " << s;
    const double load = st.in_use + st.tentative;
    if (!SiteFillIndex::fits(load, need, st.eff)) return;
    const double fill = SiteFillIndex::fill(load, need, st.eff);
    if (fill > w.fill || (fill == w.fill && s > w.site)) return;
    if (!st.deadline_ok) return;
    w = {s, fill};
  });
  return w;
}

/// One random site.  `coarse` draws from a few values so that equal fills
/// are common; otherwise values are continuous.
SiteState random_site(Rng& rng, bool coarse, double deadline_p) {
  SiteState st;
  st.up = rng.bernoulli(0.85);
  if (rng.bernoulli(0.08)) {
    st.eff = 0.0;  // up (or down) with no capacity left
  } else {
    st.eff = coarse ? 2.0 * rng.uniform_int(1, 3) : rng.uniform(0.5, 8.0);
  }
  const int load_kind = rng.uniform_int(0, 3);
  if (load_kind == 0) {
    st.in_use = 0.0;
  } else if (load_kind == 1) {
    st.in_use = -1e-15 * rng.uniform_int(1, 4);  // residue of += / -=
  } else {
    st.in_use = coarse ? 0.5 * rng.uniform_int(0, 8)
                       : rng.uniform(0.0, std::max(st.eff, 1.0));
  }
  if (rng.bernoulli(0.3)) {
    st.tentative = coarse ? 0.5 * rng.uniform_int(1, 2) : rng.uniform(0.0, 2.0);
  }
  st.deadline_ok = rng.bernoulli(deadline_p);
  return st;
}

TEST(SiteFillIndex, SearchMatchesBruteForceArgmin) {
  Rng rng(0xf111);
  std::size_t states = 0;
  std::size_t found = 0;
  std::size_t ties = 0;
  for (int trial = 0; trial < 12'000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const bool coarse = rng.bernoulli(0.5);
    const double deadline_p = rng.uniform(0.05, 1.0);
    std::vector<SiteState> sites(n);
    SiteFillIndex index(n);
    // Write every leaf twice, in a random order the second time, so the
    // index holds only what its latest updates say.
    for (SiteId s = 0; s < n; ++s) {
      const SiteState stale = random_site(rng, coarse, deadline_p);
      index.update(s, stale.up, stale.in_use, stale.eff);
    }
    for (SiteState& st : sites) st = random_site(rng, coarse, deadline_p);
    std::vector<SiteId> order(n);
    for (SiteId s = 0; s < n; ++s) order[s] = s;
    for (std::size_t k = n; k > 1; --k) {
      std::swap(order[k - 1], order[rng.uniform_u64(0, k - 1)]);
    }
    for (const SiteId s : order) {
      index.update(s, sites[s].up, sites[s].in_use, sites[s].eff);
    }
    for (const double need : {0.0, 0.5, coarse ? 1.0 : rng.uniform(0.0, 3.0)}) {
      ++states;
      const Winner want = brute_force(sites, need);
      std::size_t scored = 0;
      const Winner got = search(index, sites, need, &scored);
      ASSERT_EQ(got.site, want.site) << "trial " << trial << " need " << need;
      if (want.site == kInvalidSite) continue;
      ++found;
      EXPECT_EQ(got.fill, want.fill);
      for (SiteId s = 0; s < n; ++s) {
        const SiteState& st = sites[s];
        const double load = st.in_use + st.tentative;
        if (s != want.site && st.up && st.deadline_ok &&
            SiteFillIndex::fits(load, need, st.eff) &&
            SiteFillIndex::fill(load, need, st.eff) == want.fill) {
          ++ties;
          break;
        }
      }
    }
  }
  EXPECT_GE(states, 10'000u);
  // The draws reach the cases the search must get right.
  EXPECT_GT(found, states / 2);
  EXPECT_GT(ties, states / 20);
}

TEST(SiteFillIndex, DownAndNoCapacitySites) {
  SiteFillIndex index(5);
  for (SiteId s = 0; s < 5; ++s) index.update(s, /*up=*/false, 0.0, 4.0);
  std::size_t scored = 0;
  std::vector<SiteState> sites(5);
  for (SiteState& st : sites) st.up = false;
  EXPECT_EQ(search(index, sites, 1.0, &scored).site, kInvalidSite);
  EXPECT_EQ(scored, 0u);  // an all-down tree is never entered

  // An up site with no capacity takes a zero-need demand at the sentinel
  // fill, which any real capacity beats.
  sites[3] = {.up = true, .in_use = 0.0, .eff = 0.0};
  index.update(3, true, 0.0, 0.0);
  Winner w = search(index, sites, 0.0, &scored);
  EXPECT_EQ(w.site, 3u);
  EXPECT_EQ(w.fill, SiteFillIndex::kNoCapacityFill);
  sites[4] = {.up = true, .in_use = 3.0, .eff = 4.0};
  index.update(4, true, 3.0, 4.0);
  w = search(index, sites, 0.0, &scored);
  EXPECT_EQ(w.site, 4u);
  EXPECT_EQ(w.fill, 0.75);
}

}  // namespace
}  // namespace edgerep
