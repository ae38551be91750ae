#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "obs/slo.h"
#include "util/rng.h"

namespace edgerep {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sem(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStat, KnownSample) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: Σ(x-5)² = 32 → 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(RunningStat, MergeMatchesSequential) {
  Rng rng(31);
  RunningStat whole;
  RunningStat a;
  RunningStat b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a;
  a.add(1.0);
  a.add(2.0);
  RunningStat empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  RunningStat other;
  other.merge(a);
  EXPECT_EQ(other.count(), 2u);
  EXPECT_DOUBLE_EQ(other.mean(), 1.5);
}

TEST(RunningStat, Ci95ShrinksWithSamples) {
  RunningStat small;
  RunningStat large;
  Rng rng(32);
  for (int i = 0; i < 10; ++i) small.add(rng.normal());
  for (int i = 0; i < 1000; ++i) large.add(rng.normal());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(PercentileSorted, Endpoints) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(v, 100.0), 4.0);
}

TEST(PercentileSorted, MedianInterpolates) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(v, 50.0), 2.5);
}

TEST(PercentileSorted, SingleElement) {
  const std::vector<double> v{7.0};
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(v, 37.0), 7.0);
}

TEST(PercentileSorted, EmptyYieldsZero) {
  EXPECT_DOUBLE_EQ(obs::percentile_sorted(std::vector<double>{}, 95.0), 0.0);
}

TEST(SloRollup, SelectedPercentilesEqualSortedOnesBitForBit) {
  // The rollup selects its order statistics instead of sorting.  Against
  // sort + percentile_sorted, every field must agree bit for bit: at sizes
  // 0–3, where ranks coincide, and at ~1000 with ties and ±0.0 around the
  // hit threshold.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  Rng rng(2027);
  std::vector<std::vector<double>> samples{
      {}, {-0.0}, {0.0, -0.0}, {-0.0, 0.0}, {3.0, -1e-9, 3.0},
      {-2.0, -0.0, 0.0}};
  for (int i = 0; i < 6; ++i) {
    std::vector<double> v(997 + i);
    for (double& x : v) {
      const double u = rng.uniform();
      x = u < 0.2   ? 0.0
          : u < 0.4 ? -0.0
          : u < 0.5 ? -1e-9
          : u < 0.7 ? static_cast<double>(rng.uniform_int(-3, 3))
                    : rng.uniform(-5.0, 5.0);
    }
    samples.push_back(std::move(v));
  }
  for (const std::vector<double>& sample : samples) {
    std::vector<double> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> slacks = sample;
    const obs::SloRollup slo = obs::rollup_slo(slacks);
    std::vector<double> site_slacks = sample;
    obs::SloRollup with_site;
    obs::add_site_slo(with_site, 4, site_slacks);
    const obs::SiteSlo& row = with_site.per_site.at(0);
    const auto hits = static_cast<std::size_t>(
        std::count_if(sorted.begin(), sorted.end(), obs::meets_deadline));
    EXPECT_EQ(slo.deadline_hits, hits) << sample.size();
    EXPECT_EQ(row.deadline_hits, hits) << sample.size();
    for (const auto& [p, got, site_got] :
         {std::tuple{50.0, slo.p50_slack, row.p50_slack},
          std::tuple{5.0, slo.p95_slack, row.p95_slack},
          std::tuple{1.0, slo.p99_slack, row.p99_slack}}) {
      const double want = obs::percentile_sorted(sorted, p);
      EXPECT_EQ(bits(got), bits(want)) << "n " << sample.size() << " p " << p;
      EXPECT_EQ(bits(site_got), bits(want))
          << "n " << sample.size() << " p " << p;
    }
    EXPECT_EQ(row.demands, sample.size());
  }
}

TEST(Summarize, Basic) {
  const std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
}

TEST(Summarize, EmptyIsSafe) {
  const Summary s = summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summarize, DoesNotModifyInput) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  (void)summarize(xs);
  EXPECT_EQ(xs[0], 3.0);
  EXPECT_EQ(xs[1], 1.0);
}

TEST(MeanCiString, Formats) {
  RunningStat s;
  s.add(1.0);
  s.add(3.0);
  const std::string str = mean_ci_string(s, 1);
  EXPECT_NE(str.find("2.0"), std::string::npos);
  EXPECT_NE(str.find("±"), std::string::npos);
}

}  // namespace
}  // namespace edgerep
