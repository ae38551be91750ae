#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
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
