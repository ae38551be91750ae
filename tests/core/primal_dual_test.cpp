#include "core/primal_dual.h"

#include <gtest/gtest.h>

#include "helpers/fixtures.h"

namespace edgerep {
namespace {

using testing::TinyFixture;

TEST(DualState, StartsAtZero) {
  const Instance inst = TinyFixture::make();
  const DualState d(inst);
  EXPECT_DOUBLE_EQ(d.theta(0), 0.0);
  EXPECT_DOUBLE_EQ(d.theta(1), 0.0);
  EXPECT_DOUBLE_EQ(d.mu(0), 0.0);
  EXPECT_DOUBLE_EQ(d.y(0), 0.0);
  EXPECT_DOUBLE_EQ(d.objective(), 0.0);
}

TEST(DualState, RaiseThetaIsRelativeLoad) {
  const Instance inst = TinyFixture::make();
  DualState d(inst);
  // Site 0 has 10 GHz available.
  d.raise_theta(0, 5.0, inst.site(0).available);
  EXPECT_DOUBLE_EQ(d.theta(0), 0.5);
  d.raise_theta(0, 5.0, inst.site(0).available);
  EXPECT_DOUBLE_EQ(d.theta(0), 1.0);
}

TEST(DualState, RaiseMuCountsReplicas) {
  const Instance inst = TinyFixture::make();
  DualState d(inst);
  d.raise_mu(0);
  d.raise_mu(0);
  EXPECT_DOUBLE_EQ(d.mu(0), 2.0);
}

TEST(DualState, ZeroStateIsInfeasibleWithQueries) {
  // With θ = y = 0, constraint (9) (y ≥ vol) fails.
  const Instance inst = TinyFixture::make();
  const DualState d(inst);
  EXPECT_FALSE(d.feasible());
}

TEST(DualState, RepairProducesFeasibleDual) {
  const Instance inst = TinyFixture::make();
  DualState d(inst);
  d.repair();
  EXPECT_TRUE(d.feasible());
  // With θ = 0, repair sets y = μ = vol = 4; objective = K·μ = 2·4.
  EXPECT_DOUBLE_EQ(d.y(0), 4.0);
  EXPECT_DOUBLE_EQ(d.mu(0), 4.0);
  EXPECT_DOUBLE_EQ(d.objective(), 8.0);
}

TEST(DualState, RepairIsIdempotent) {
  const Instance inst = TinyFixture::make();
  DualState d(inst);
  d.raise_theta(0, 2.0, inst.site(0).available);
  d.repair();
  const double obj = d.objective();
  d.repair();
  EXPECT_DOUBLE_EQ(d.objective(), obj);
  EXPECT_TRUE(d.feasible());
}

TEST(DualState, HigherThetaLowersRequiredY) {
  const Instance inst = TinyFixture::make();
  DualState cold(inst);
  cold.repair();
  DualState warm(inst);
  warm.raise_theta(0, 5.0, inst.site(0).available);   // θ₀ = 0.5
  warm.raise_theta(1, 50.0, inst.site(1).available);  // θ₁ = 0.5
  warm.repair();
  // min θ = 0.5 ⇒ y = vol·(1 - r·0.5) = 4·0.5 = 2 < 4.
  EXPECT_LT(warm.y(0), cold.y(0));
  EXPECT_TRUE(warm.feasible());
}

TEST(DualState, ObjectiveIncludesCapacityTerm) {
  const Instance inst = TinyFixture::make();
  DualState d(inst);
  // θ₁ = 0.5; site 1 has A = 100.
  d.raise_theta(1, 50.0, inst.site(1).available);
  d.repair();
  // A₁·θ₁ = 50 plus K·μ terms.
  EXPECT_GE(d.objective(), 50.0);
}

TEST(DualState, FeasibilityDetectsMuBelowY) {
  const Instance inst = TinyFixture::make();
  DualState d(inst);
  d.set_y(0, 5.0);
  // (9) holds (y=5 ≥ vol=4) but (10) (μ ≥ y) fails.
  EXPECT_FALSE(d.feasible());
}

}  // namespace
}  // namespace edgerep
