// Plans pinned against tests/golden/online_hashes.txt (`plans/...` lines):
// the replica lists, assignments and dual objective every admission path
// produces for fixed instances — Appro-S/G under each query order and
// engine variant, Greedy, local search, fault repair and the stream
// reconciler — plus the audit logs of the transactional paths and the
// counters they move.  The instances are tight enough that rejections,
// rollbacks and stream conflicts fire (the tests assert each), so the pins
// cover the failure paths too.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "baselines/greedy.h"
#include "cloud/delay.h"
#include "core/appro.h"
#include "core/local_search.h"
#include "core/repair.h"
#include "helpers/fixtures.h"
#include "helpers/golden.h"
#include "obs/audit.h"
#include "obs/obs.h"
#include "stream/stream_engine.h"
#include "workload/arrival_gen.h"
#include "workload/generator.h"

namespace edgerep {
namespace {

using Order = ApproOptions::Order;

constexpr Order kOrders[] = {Order::kInput, Order::kVolumeDesc,
                             Order::kVolumeAsc, Order::kDeadlineAsc,
                             Order::kRandom};

std::string order_name(Order o) {
  switch (o) {
    case Order::kInput:
      return "input";
    case Order::kVolumeDesc:
      return "volume_desc";
    case Order::kVolumeAsc:
      return "volume_asc";
    case Order::kDeadlineAsc:
      return "deadline_asc";
    case Order::kRandom:
      return "random";
  }
  return "?";
}

/// Scarce capacity: a large share of queries is rejected and multi-dataset
/// queries roll back.
Instance tight_instance(std::uint64_t seed, std::size_t f_max,
                        std::size_t queries = 80) {
  WorkloadConfig cfg;
  cfg.network_size = 32;
  cfg.min_queries = queries;
  cfg.max_queries = queries;
  cfg.max_datasets_per_query = f_max;
  cfg.dc_capacity = {20.0, 40.0};
  cfg.cl_capacity = {2.0, 4.0};
  return generate_instance(cfg, seed);
}

std::string demands(std::size_t assigned, std::size_t rejected) {
  return " demands=" + std::to_string(assigned) + ":" +
         std::to_string(rejected);
}

std::string appro_fp(const ApproResult& r) {
  EXPECT_GT(r.demands_rejected, 0u);
  return testing::plan_fp(r.plan, r.dual_objective) +
         demands(r.demands_assigned, r.demands_rejected);
}

std::string baseline_fp(const BaselineResult& r) {
  EXPECT_GT(r.demands_rejected, 0u);
  return testing::plan_fp(r.plan) +
         demands(r.demands_assigned, r.demands_rejected);
}

class PlanGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_all_enabled(false);
    obs::audit_log().clear();
  }
  void TearDown() override {
    obs::audit_log().clear();
    obs::init_from_env();
  }
};

TEST_F(PlanGolden, ApproUnderEveryOrder) {
  const Instance single = tight_instance(51, /*f_max=*/1);
  const Instance general = tight_instance(52, /*f_max=*/5);
  for (const Order order : kOrders) {
    ApproOptions opts;
    opts.order = order;
    testing::expect_golden("plans/appro_s/" + order_name(order),
                           appro_fp(appro_s(single, opts)));
    testing::expect_golden("plans/appro_g/" + order_name(order),
                           appro_fp(appro_g(general, opts)));
  }
}

TEST_F(PlanGolden, ApproEngineVariants) {
  const Instance single = tight_instance(51, /*f_max=*/1);
  const Instance general = tight_instance(52, /*f_max=*/5);
  ApproOptions non_atomic;
  non_atomic.atomic_queries = false;
  ApproOptions strict;
  strict.strict_reuse = true;
  const std::vector<std::pair<std::string, ApproOptions>> variants = {
      {"non_atomic", non_atomic}, {"strict_reuse", strict}};
  for (const auto& [name, opts] : variants) {
    testing::expect_golden("plans/appro_s/" + name,
                           appro_fp(appro_s(single, opts)));
    testing::expect_golden("plans/appro_g/" + name,
                           appro_fp(appro_g(general, opts)));
  }
}

TEST_F(PlanGolden, GreedyBothModes) {
  const Instance inst = tight_instance(52, /*f_max=*/5);
  GreedyOptions atomic;
  atomic.atomic_queries = true;
  testing::expect_golden("plans/greedy_g/default", baseline_fp(greedy_g(inst)));
  testing::expect_golden("plans/greedy_g/atomic",
                         baseline_fp(greedy_g(inst, atomic)));
}

TEST_F(PlanGolden, ImprovePlan) {
  const Instance inst = tight_instance(52, /*f_max=*/5);
  auto improved = [](ReplicaPlan plan) {
    const LocalSearchResult r = improve_plan(std::move(plan));
    return testing::plan_fp(r.plan) +
           " search=" + std::to_string(r.relocations) + ":" +
           std::to_string(r.queries_admitted) + ":" + std::to_string(r.passes);
  };
  testing::expect_golden("plans/improve/greedy_g",
                         improved(greedy_g(inst).plan));
  testing::expect_golden("plans/improve/appro_g", improved(appro_g(inst).plan));
}

/// One crash, one capacity loss and one link-down on the three busiest
/// sites of `plan` (the link is the first edge at the third site's node).
FaultState mixed_faults(const Instance& inst, const ReplicaPlan& plan) {
  std::vector<SiteId> busiest;
  for (const Site& s : inst.sites()) busiest.push_back(s.id);
  std::stable_sort(busiest.begin(), busiest.end(), [&](SiteId a, SiteId b) {
    return plan.load(a) > plan.load(b);
  });
  FaultState faults(inst);
  faults.apply({0.0, FaultKind::kSiteDown, busiest[0], kInvalidEdge, 0.0});
  faults.apply({0.0, FaultKind::kCapacityLoss, busiest[1], kInvalidEdge, 0.6});
  const NodeId node = inst.site(busiest[2]).node;
  for (EdgeId e = 0; e < inst.graph().num_edges(); ++e) {
    const Edge& edge = inst.graph().edge(e);
    if (edge.u == node || edge.v == node) {
      faults.apply({0.0, FaultKind::kLinkDown, kInvalidSite, e, 0.0});
      break;
    }
  }
  return faults;
}

TEST_F(PlanGolden, RepairUnderEveryOrder) {
  const Instance inst = tight_instance(53, /*f_max=*/4);
  const ApproResult solved = appro_g(inst);
  const FaultState faults = mixed_faults(inst, solved.plan);
  ASSERT_TRUE(faults.any_link_down());
  const RepairEngine engine(inst);
  for (const bool full : {false, true}) {
    for (const Order order : kOrders) {
      RepairOptions opts;
      opts.admission.order = order;
      opts.full_recompute = full;
      ReplicaPlan plan = solved.plan;
      DualState duals = solved.duals;
      const RepairStats st = engine.repair(plan, duals, faults, opts);
      EXPECT_GT(st.queries_evicted, 0u);
      EXPECT_GT(st.queries_lost, 0u);
      testing::expect_golden(
          std::string("plans/repair/") + (full ? "full/" : "incremental/") +
              order_name(order),
          testing::plan_fp(plan, duals.objective()) +
              " repair=" + std::to_string(st.queries_evicted) + ":" +
              std::to_string(st.queries_readmitted) + ":" +
              std::to_string(st.queries_lost) + ":" +
              std::to_string(st.replicas_lost) + ":" +
              std::to_string(st.replicas_placed));
    }
  }
}

// Appro-G, then repair, in the perfbench `admission` shape
// (testing::tight_deadline_instance).  The instances above leave most sites
// deadline-feasible; this one pins the plans built from short candidate
// rows.
TEST_F(PlanGolden, ApproThenRepairAtTightDeadlines) {
  const Instance inst = testing::tight_deadline_instance();
  std::size_t slots = 0;
  for (const Query& q : inst.queries()) slots += q.demands.size();
  ASSERT_LT(inst.site(0).available, inst.site(0).capacity);

  const ApproResult solved = appro_g(inst);
  const RepairEngine engine(inst);
  EXPECT_LT(static_cast<double>(engine.index().size()),
            0.05 * static_cast<double>(slots * inst.sites().size()));
  const FaultState faults = mixed_faults(inst, solved.plan);
  ASSERT_TRUE(faults.any_link_down());
  ReplicaPlan plan = solved.plan;
  DualState duals = solved.duals;
  const RepairStats st = engine.repair(plan, duals, faults);
  EXPECT_GT(st.queries_evicted, 0u);
  testing::expect_golden(
      "plans/repair/tight_deadlines",
      appro_fp(solved) + " " + testing::plan_fp(plan, duals.objective()) +
          " repair=" + std::to_string(st.queries_evicted) + ":" +
          std::to_string(st.queries_readmitted) + ":" +
          std::to_string(st.queries_lost) + ":" +
          std::to_string(st.replicas_lost) + ":" +
          std::to_string(st.replicas_placed));
}

// Appro-G in the tight-deadline shape at 1 to 33 queries, under every
// order.  The admission loop looks up to 16 queries ahead, so these loops
// are shorter than, as long as and just past each lookahead distance.
// Pinned from the engine before it had any lookahead.
TEST_F(PlanGolden, ApproAtLookaheadBoundaries) {
  std::vector<std::string> fps;
  std::size_t rejected = 0;
  for (std::size_t queries = 1; queries <= 33; ++queries) {
    const Instance inst = testing::tight_deadline_instance(queries, 200);
    for (const Order order : kOrders) {
      ApproOptions opts;
      opts.order = order;
      const ApproResult r = appro_g(inst, opts);
      rejected += r.demands_rejected;
      fps.push_back(testing::plan_fp(r.plan, r.dual_objective) +
                    demands(r.demands_assigned, r.demands_rejected));
    }
  }
  EXPECT_GT(rejected, 0u);
  testing::expect_golden("plans/appro_g/lookahead_boundaries",
                         testing::runs_fp(fps));
}

std::string stream_fp(const StreamResult& r) {
  return testing::plan_fp(r.plan) +
         " stream=" + std::to_string(r.queries_admitted) + ":" +
         std::to_string(r.queries_rejected) + ":" +
         std::to_string(r.conflicts) + ":" + std::to_string(r.requeues) + ":" +
         std::to_string(r.ledger_reserves) + ":" +
         std::to_string(r.ledger_releases) + ":" + std::to_string(r.epochs);
}

// A fast arrival stream over many queries: shards collide on boundary
// data centers, losers re-queue, and some exhaust their re-queue budget.
TEST_F(PlanGolden, StreamReconcile) {
  const Instance inst = tight_instance(52, /*f_max=*/5, /*queries=*/200);
  StreamOptions one;
  one.shards = 1;
  const StreamResult id_order = run_stream(
      inst, generate_arrival_stream(inst, 1000.0, 11, ArrivalOrder::kQueryId),
      one);
  EXPECT_GT(id_order.queries_rejected, 0u);
  testing::expect_golden("plans/stream/s1_id_order", stream_fp(id_order));

  StreamOptions four;
  four.shards = 4;
  four.boundary = BoundaryPolicy::kDataCenters;
  const StreamResult dc =
      run_stream(inst, generate_arrival_stream(inst, 1000.0, 11), four);
  EXPECT_GT(dc.conflicts, dc.requeues);
  EXPECT_GT(dc.requeues, 0u);
  EXPECT_GT(dc.ledger_releases, dc.conflicts);
  testing::expect_golden("plans/stream/s4_dc", stream_fp(dc));
}

// The stream plane on the tight-deadline instance: one shard over a
// query-id-ordered stream (batch Appro-G in input order), and eight shards
// over a shuffled stream, where shards conflict and losers re-queue.
TEST_F(PlanGolden, StreamAtTightDeadlines) {
  const Instance inst = testing::tight_deadline_instance();
  StreamOptions one;
  one.shards = 1;
  const StreamResult id_order = run_stream(
      inst,
      generate_arrival_stream(inst, 20'000.0, 7, ArrivalOrder::kQueryId),
      one);
  EXPECT_GT(id_order.queries_rejected, 0u);
  testing::expect_golden("plans/stream/tight_deadlines_s1",
                         stream_fp(id_order));

  StreamOptions eight;
  eight.shards = 8;
  const StreamResult shuffled =
      run_stream(inst, generate_arrival_stream(inst, 20'000.0, 7), eight);
  EXPECT_GT(shuffled.conflicts, 0u);
  EXPECT_GT(shuffled.queries_rejected, 0u);
  testing::expect_golden("plans/stream/tight_deadlines_s8",
                         stream_fp(shuffled));
}

TEST_F(PlanGolden, AuditOfTransactionalPaths) {
  const Instance inst = tight_instance(52, /*f_max=*/5);
  auto audited = [](const auto& run) {
    obs::audit_log().clear();
    obs::set_audit_enabled(true);
    run();
    obs::set_audit_enabled(false);
    const std::vector<obs::AuditEntry> entries = obs::audit_log().snapshot();
    std::size_t rejected = 0;
    std::size_t rolled_back = 0;
    for (const obs::AuditEntry& e : entries) {
      rejected += e.admitted ? 0 : 1;
      rolled_back += e.reason == obs::AuditReason::kAtomicRollback ? 1 : 0;
    }
    EXPECT_GT(rejected, rolled_back);
    return testing::audit_fp(entries) +
           " rolled_back=" + std::to_string(rolled_back);
  };
  testing::expect_golden("plans/audit/appro_g",
                         audited([&] { (void)appro_g(inst); }));
  ApproOptions non_atomic;
  non_atomic.atomic_queries = false;
  testing::expect_golden("plans/audit/appro_g_non_atomic",
                         audited([&] { (void)appro_g(inst, non_atomic); }));
  GreedyOptions atomic;
  atomic.atomic_queries = true;
  testing::expect_golden("plans/audit/greedy_g_atomic",
                         audited([&] { (void)greedy_g(inst, atomic); }));
}

// The counters the admission paths move, one run of each.
TEST_F(PlanGolden, AdmissionCounters) {
  const Instance inst = tight_instance(52, /*f_max=*/5);
  const auto before = testing::counter_values();
  obs::set_metrics_enabled(true);
  const ApproResult solved = appro_g(inst);
  GreedyOptions atomic;
  atomic.atomic_queries = true;
  (void)greedy_g(inst, atomic);
  (void)improve_plan(greedy_g(inst).plan);
  ReplicaPlan plan = solved.plan;
  DualState duals = solved.duals;
  (void)RepairEngine(inst).repair(plan, duals, mixed_faults(inst, solved.plan));
  StreamOptions four;
  four.shards = 4;
  four.boundary = BoundaryPolicy::kDataCenters;
  (void)run_stream(inst, generate_arrival_stream(inst, 1000.0, 11), four);
  obs::set_metrics_enabled(false);
  auto after = testing::counter_values();
  after.erase("edgerep_stream_reconcile_ns_total");  // wall clock
  testing::expect_golden(
      "plans/counters",
      testing::counter_deltas(
          before, after,
          {"edgerep_appro_", "edgerep_greedy_", "edgerep_local_search_",
           "edgerep_repair_", "edgerep_stream_", "edgerep_dual_"}));
}

}  // namespace
}  // namespace edgerep
