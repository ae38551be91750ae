#include "core/appro.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/admission.h"
#include "core/candidate_index.h"
#include "core/repair.h"
#include "helpers/fixtures.h"
#include "util/rng.h"

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

/// Random keys with many ties and some +inf: volumes and deadlines drawn
/// from a few values, on `queries` queries of 1-3 demands.
Instance tied_keys_instance(std::uint64_t seed, std::size_t queries) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(seed);
  Graph g;
  g.add_node();
  Instance inst(std::move(g));
  const SiteId s = inst.add_site(0, 10.0, 0.1);
  const double volumes[] = {1.0, 2.0, 2.0, 3.5, 1e-300, 1e300, kInf};
  for (const double v : volumes) inst.add_dataset(v, s);
  const double deadlines[] = {0.5, 1.0, 1.0, 7.25, 1e-300, kInf};
  for (std::size_t m = 0; m < queries; ++m) {
    std::vector<DatasetDemand> demands;
    const std::size_t f = rng.uniform_u64(1, 3);
    const auto first = static_cast<DatasetId>(rng.uniform_u64(0, 6));
    for (std::size_t k = 0; k < f; ++k) {
      demands.push_back({static_cast<DatasetId>((first + k) % 7), 0.5});
    }
    inst.add_query(s, 1.0, deadlines[rng.uniform_u64(0, 5)],
                   std::move(demands));
  }
  inst.finalize();
  return inst;
}

TEST(OrderQueries, RanksLikeStableSortWithTiesAndInfinity) {
  using Order = ApproOptions::Order;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Instance inst = tied_keys_instance(seed, seed * 97);
    const auto volume = [&](QueryId m) { return inst.demanded_volume(m); };
    const auto deadline = [&](QueryId m) { return inst.query(m).deadline; };
    // Every query, and a shuffled subset as repair passes its displaced
    // queries: both are ranked from id order.
    std::vector<QueryId> all(inst.queries().size());
    std::iota(all.begin(), all.end(), QueryId{0});
    std::vector<QueryId> subset;
    Rng rng(seed + 100);
    for (const QueryId m : all) {
      if (rng.bernoulli(0.4)) subset.push_back(m);
    }
    rng.shuffle(std::span<QueryId>(subset));
    for (const std::vector<QueryId>& input : {all, subset}) {
      std::vector<QueryId> sorted = input;
      std::sort(sorted.begin(), sorted.end());
      const auto expect = [&](Order order, auto key, auto before) {
        std::vector<QueryId> want = sorted;
        std::stable_sort(want.begin(), want.end(), [&](QueryId a, QueryId b) {
          return before(key(a), key(b));
        });
        ApproOptions opts;
        opts.order = order;
        std::vector<QueryId> got = input;
        order_queries(inst, opts, got);
        EXPECT_EQ(got, want) << "order " << static_cast<int>(order);
      };
      expect(Order::kVolumeDesc, volume, std::greater<>());
      expect(Order::kVolumeAsc, volume, std::less<>());
      expect(Order::kDeadlineAsc, deadline, std::less<>());
      ApproOptions as_given;
      as_given.order = Order::kInput;
      std::vector<QueryId> got = input;
      order_queries(inst, as_given, got);
      EXPECT_EQ(got, sorted);
    }
  }
  // Nothing to rank.
  const Instance inst = tied_keys_instance(1, 5);
  std::vector<QueryId> none;
  order_queries(inst, {}, none);
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace edgerep
