#include "core/appro.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/candidate_index.h"
#include "core/repair.h"
#include "helpers/fixtures.h"

namespace edgerep {
namespace {

using testing::TinyFixture;

TEST(ApproS, AdmitsTheTinyQuery) {
  const Instance inst = TinyFixture::make(/*deadline=*/1.0);
  const ApproResult r = appro_s(inst);
  EXPECT_TRUE(r.plan.admitted(0));
  EXPECT_EQ(*r.plan.assignment(0, 0), 0u);  // only the cloudlet is feasible
  EXPECT_DOUBLE_EQ(r.metrics.admitted_volume, 4.0);
  EXPECT_DOUBLE_EQ(r.metrics.throughput, 1.0);
  EXPECT_EQ(r.demands_assigned, 1u);
  EXPECT_EQ(r.demands_rejected, 0u);
}

TEST(ApproS, RejectsWhenNoSiteFeasible) {
  const Instance inst = TinyFixture::make(/*deadline=*/0.1);
  const ApproResult r = appro_s(inst);
  EXPECT_FALSE(r.plan.admitted(0));
  EXPECT_EQ(r.demands_rejected, 1u);
  EXPECT_DOUBLE_EQ(r.metrics.admitted_volume, 0.0);
}

TEST(ApproS, ThrowsOnMultiDatasetQueries) {
  const Instance inst = testing::small_instance(5, /*f_max=*/3);
  bool has_multi = false;
  for (const Query& q : inst.queries()) has_multi |= q.demands.size() > 1;
  if (!has_multi) GTEST_SKIP() << "instance happened to be single-demand";
  EXPECT_THROW(appro_s(inst), std::invalid_argument);
}

TEST(ApproS, PlanAlwaysValidates) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance inst = testing::small_instance(seed, /*f_max=*/1);
    const ApproResult r = appro_s(inst);
    const ValidationResult vr = validate(r.plan);
    EXPECT_TRUE(vr.ok) << "seed " << seed << ": "
                       << (vr.violations.empty() ? "" : vr.violations[0]);
  }
}

TEST(ApproS, WeakDualityHolds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Instance inst = testing::small_instance(seed, /*f_max=*/1);
    const ApproResult r = appro_s(inst);
    EXPECT_TRUE(r.duals.feasible()) << "seed " << seed;
    // The repaired dual upper-bounds the primal objective.
    EXPECT_LE(r.metrics.admitted_volume, r.dual_objective + 1e-6)
        << "seed " << seed;
  }
}

TEST(ApproS, DeterministicAcrossRuns) {
  const Instance inst = testing::medium_instance(3, /*f_max=*/1);
  const ApproResult a = appro_s(inst);
  const ApproResult b = appro_s(inst);
  EXPECT_DOUBLE_EQ(a.metrics.admitted_volume, b.metrics.admitted_volume);
  EXPECT_EQ(a.metrics.admitted_queries, b.metrics.admitted_queries);
  EXPECT_EQ(a.plan.total_replicas(), b.plan.total_replicas());
}

TEST(ApproG, HandlesMultiDatasetQueries) {
  const Instance inst = testing::medium_instance(4, /*f_max=*/4);
  const ApproResult r = appro_g(inst);
  EXPECT_TRUE(validate(r.plan).ok);
  EXPECT_EQ(r.demands_assigned + r.demands_rejected,
            [&] {
              std::size_t total = 0;
              for (const Query& q : inst.queries()) total += q.demands.size();
              return total;
            }());
}

TEST(ApproG, AssignedVolumeAtLeastAdmitted) {
  const Instance inst = testing::medium_instance(5, /*f_max=*/4);
  const ApproResult r = appro_g(inst);
  EXPECT_GE(r.metrics.assigned_volume, r.metrics.admitted_volume - 1e-9);
}

TEST(ApproG, AtomicModeNeverStrandsDemands) {
  ApproOptions opts;
  opts.atomic_queries = true;
  for (std::uint64_t seed = 6; seed <= 9; ++seed) {
    const Instance inst = testing::medium_instance(seed, /*f_max=*/4);
    const ApproResult r = appro_g(inst, opts);
    EXPECT_TRUE(validate(r.plan).ok);
    // Atomic commits mean a query is either fully assigned or untouched.
    for (const Query& q : inst.queries()) {
      const std::size_t assigned = r.plan.assigned_demands(q.id);
      EXPECT_TRUE(assigned == 0 || assigned == q.demands.size())
          << "seed " << seed << " query " << q.id;
    }
    // So admitted volume equals assigned volume.
    EXPECT_NEAR(r.metrics.admitted_volume, r.metrics.assigned_volume, 1e-9);
  }
}

TEST(ApproG, ReplicaBudgetRespectedUnderAllOrders) {
  using Order = ApproOptions::Order;
  for (const Order order : {Order::kInput, Order::kVolumeDesc,
                            Order::kVolumeAsc, Order::kDeadlineAsc,
                            Order::kRandom}) {
    ApproOptions opts;
    opts.order = order;
    const Instance inst = testing::medium_instance(11, /*f_max=*/3);
    const ApproResult r = appro_g(inst, opts);
    for (const Dataset& d : inst.datasets()) {
      EXPECT_LE(r.plan.replica_count(d.id), inst.max_replicas());
    }
    EXPECT_TRUE(validate(r.plan).ok);
  }
}

TEST(ApproG, StrictReuseStillValid) {
  ApproOptions opts;
  opts.strict_reuse = true;
  const Instance inst = testing::medium_instance(12, /*f_max=*/3);
  const ApproResult r = appro_g(inst, opts);
  EXPECT_TRUE(validate(r.plan).ok);
  // Strict reuse can only use fewer or equal replicas than joint pricing.
  const ApproResult joint = appro_g(inst);
  EXPECT_LE(r.plan.total_replicas(), joint.plan.total_replicas());
}

TEST(ApproG, WeakDualityHoldsGeneralCase) {
  for (std::uint64_t seed = 21; seed <= 26; ++seed) {
    const Instance inst = testing::medium_instance(seed, /*f_max=*/4);
    const ApproResult r = appro_g(inst);
    EXPECT_TRUE(r.duals.feasible()) << "seed " << seed;
    EXPECT_LE(r.metrics.admitted_volume, r.dual_objective + 1e-6)
        << "seed " << seed;
  }
}

TEST(ApproG, UnfinalizedInstanceThrows) {
  Graph g;
  g.add_node();
  Instance inst(std::move(g));
  inst.add_site(0, 1.0, 0.1);
  EXPECT_THROW(appro_g(inst), std::invalid_argument);
  EXPECT_THROW(RepairEngine{inst}, std::invalid_argument);
  EXPECT_THROW(CandidateIndex{inst}, std::invalid_argument);
}

TEST(ApproG, AbundantResourcesAdmitEveryFeasibleDemand) {
  // With effectively unlimited capacity and a replica budget covering every
  // site, any demand with at least one deadline-feasible site must be
  // assigned — rejections can only come from the QoS constraint.
  WorkloadConfig cfg;
  cfg.network_size = 16;
  cfg.min_queries = 30;
  cfg.max_queries = 30;
  cfg.max_datasets_per_query = 3;
  cfg.cl_capacity = {1e6, 1e6};
  cfg.dc_capacity = {1e6, 1e6};
  cfg.max_replicas = 100;  // ≥ |V|
  const Instance inst = generate_instance(cfg, 99);
  ApproOptions opts;
  opts.atomic_queries = false;  // per-demand admission for this property
  const ApproResult r = appro_g(inst, opts);
  for (const Query& q : inst.queries()) {
    for (const DatasetDemand& dd : q.demands) {
      bool any_feasible = false;
      for (const Site& s : inst.sites()) {
        any_feasible |= deadline_ok(inst, q, dd, s.id);
      }
      EXPECT_EQ(r.plan.assignment(q.id, dd.dataset).has_value(), any_feasible)
          << "query " << q.id << " dataset " << dd.dataset;
    }
  }
}

}  // namespace
}  // namespace edgerep
