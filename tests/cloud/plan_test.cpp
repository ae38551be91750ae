#include "cloud/plan.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <stdexcept>

#include "helpers/fixtures.h"

namespace edgerep {
namespace {

using testing::TinyFixture;

TEST(ReplicaPlan, StartsEmpty) {
  const Instance inst = TinyFixture::make();
  const ReplicaPlan plan(inst);
  EXPECT_EQ(plan.replica_count(0), 0u);
  EXPECT_EQ(plan.total_replicas(), 0u);
  EXPECT_FALSE(plan.has_replica(0, 0));
  EXPECT_FALSE(plan.assignment(0, 0).has_value());
  EXPECT_FALSE(plan.admitted(0));
  EXPECT_DOUBLE_EQ(plan.load(0), 0.0);
  EXPECT_DOUBLE_EQ(plan.residual(0), 10.0);
}

TEST(ReplicaPlan, RequiresFinalizedInstance) {
  Graph g;
  g.add_node();
  Instance inst(std::move(g));
  inst.add_site(0, 1.0, 0.1);
  EXPECT_THROW(ReplicaPlan{inst}, std::invalid_argument);
}

TEST(ReplicaPlan, PlaceReplicaIdempotent) {
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.place_replica(0, 0);
  EXPECT_EQ(plan.replica_count(0), 1u);
  EXPECT_TRUE(plan.has_replica(0, 0));
}

TEST(ReplicaPlan, ReplicaBudgetEnforced) {
  const Instance inst = TinyFixture::make(1.0, /*max_replicas=*/1);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  EXPECT_THROW(plan.place_replica(0, 1), std::runtime_error);
}

TEST(ReplicaPlan, PlaceReplicaOutOfRangeSite) {
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  EXPECT_THROW(plan.place_replica(0, 99), std::invalid_argument);
}

TEST(ReplicaPlan, AssignRequiresReplica) {
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  EXPECT_THROW(plan.assign(0, 0, 0), std::runtime_error);
}

TEST(ReplicaPlan, AssignDebitsLedger) {
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);
  EXPECT_DOUBLE_EQ(plan.load(0), 4.0);
  EXPECT_DOUBLE_EQ(plan.residual(0), 6.0);
  ASSERT_TRUE(plan.assignment(0, 0).has_value());
  EXPECT_EQ(*plan.assignment(0, 0), 0u);
  EXPECT_TRUE(plan.admitted(0));
  EXPECT_EQ(plan.assigned_demands(0), 1u);
}

TEST(ReplicaPlan, DoubleAssignThrows) {
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);
  EXPECT_THROW(plan.assign(0, 0, 0), std::runtime_error);
}

TEST(ReplicaPlan, AssignWrongDatasetThrows) {
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  EXPECT_THROW(plan.assign(0, 5, 0), std::invalid_argument);
}

TEST(ReplicaPlan, CapacityRefused) {
  // Query needs 4 GHz; shrink the cloudlet to 3 GHz available.
  Graph g;
  const NodeId cl = g.add_node(NodeRole::kCloudlet);
  Instance inst(std::move(g));
  const SiteId s = inst.add_site(cl, 3.0, 0.1);
  const DatasetId d = inst.add_dataset(4.0, s);
  inst.add_query(s, 1.0, 100.0, {{d, 0.5}});
  inst.finalize();
  ReplicaPlan plan(inst);
  plan.place_replica(d, s);
  EXPECT_FALSE(plan.fits(s, 4.0));
  EXPECT_THROW(plan.assign(0, d, s), std::runtime_error);
}

TEST(ReplicaPlan, UnassignCreditsLedger) {
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);
  plan.unassign(0, 0);
  EXPECT_DOUBLE_EQ(plan.load(0), 0.0);
  EXPECT_FALSE(plan.assignment(0, 0).has_value());
  EXPECT_FALSE(plan.admitted(0));
  // Can re-assign after unassign.
  plan.assign(0, 0, 0);
  EXPECT_TRUE(plan.admitted(0));
}

TEST(ReplicaPlan, UnassignUnassignedThrows) {
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  EXPECT_THROW(plan.unassign(0, 0), std::runtime_error);
  EXPECT_THROW(plan.unassign(0, 5), std::runtime_error);
}

TEST(ReplicaPlan, RemoveReplicaFreesBudget) {
  const Instance inst = TinyFixture::make(1.0, /*max_replicas=*/1);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 1);
  plan.remove_replica(0, 1);
  EXPECT_EQ(plan.replica_count(0), 0u);
  // Budget is free again.
  plan.place_replica(0, 0);
  EXPECT_TRUE(plan.has_replica(0, 0));
}

TEST(ReplicaPlan, RemoveReplicaInUseThrows) {
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);
  EXPECT_THROW(plan.remove_replica(0, 0), std::runtime_error);
  plan.unassign(0, 0);
  EXPECT_NO_THROW(plan.remove_replica(0, 0));
}

TEST(ReplicaPlan, RemoveMissingReplicaThrows) {
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  EXPECT_THROW(plan.remove_replica(0, 0), std::runtime_error);
}

TEST(ReplicaPlan, QueryPastTheLastThrows) {
  // The assignments of every query sit in one array with n + 1 offsets;
  // query n has an offset entry but no slots, and must not read as a query.
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  const auto n = static_cast<QueryId>(inst.queries().size());
  EXPECT_THROW((void)plan.assigned_demands(n), std::out_of_range);
  EXPECT_THROW((void)plan.admitted(n), std::out_of_range);
  EXPECT_THROW((void)plan.assignment(n, 0), std::out_of_range);
  EXPECT_THROW(plan.assign(n, 0, 0), std::out_of_range);
  EXPECT_THROW(plan.unassign(n, 0), std::out_of_range);
  const QueryId last = std::numeric_limits<QueryId>::max();
  EXPECT_THROW((void)plan.assigned_demands(last), std::out_of_range);
  EXPECT_THROW((void)plan.admitted(last), std::out_of_range);
}

TEST(ReplicaPlan, NeighbouringQueriesKeepTheirOwnSlots) {
  // Three queries of 2, 1 and 3 demands share the flat slot array: an
  // assignment, an unassign and a rollback touch only their own query.
  Graph g;
  const NodeId v = g.add_node(NodeRole::kCloudlet);
  Instance inst(std::move(g));
  const SiteId s = inst.add_site(v, 100.0, 0.01);
  for (int i = 0; i < 3; ++i) inst.add_dataset(1.0, s);
  inst.add_query(s, 1.0, 100.0, {{0, 0.5}, {1, 0.5}});
  inst.add_query(s, 1.0, 100.0, {{2, 0.5}});
  inst.add_query(s, 1.0, 100.0, {{0, 0.5}, {1, 0.5}, {2, 0.5}});
  inst.finalize();
  ReplicaPlan plan(inst);
  for (DatasetId d = 0; d < 3; ++d) plan.place_replica(d, s);
  plan.assign(1, 2, s);
  EXPECT_EQ(plan.assigned_demands(0), 0u);
  EXPECT_TRUE(plan.admitted(1));
  EXPECT_EQ(plan.assigned_demands(2), 0u);
  EXPECT_FALSE(plan.assignment(2, 2).has_value());

  const ReplicaPlan::Savepoint sp = plan.savepoint();
  plan.assign(2, 0, s);
  plan.assign(2, 2, s);
  plan.assign(0, 1, s);
  EXPECT_EQ(plan.assigned_demands(2), 2u);
  EXPECT_EQ(plan.assigned_demands(0), 1u);
  plan.rollback_to(sp);
  plan.commit();
  EXPECT_EQ(plan.assigned_demands(0), 0u);
  EXPECT_EQ(plan.assigned_demands(1), 1u);
  EXPECT_EQ(plan.assigned_demands(2), 0u);

  plan.assign(2, 1, s);
  plan.unassign(1, 2);
  EXPECT_FALSE(plan.admitted(1));
  EXPECT_EQ(plan.assignment(2, 1), std::optional<SiteId>(s));
  EXPECT_EQ(plan.assigned_demands(2), 1u);
}

TEST(Evaluate, CountsAdmittedVolumeAndThroughput) {
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);
  const PlanMetrics pm = evaluate(plan);
  EXPECT_DOUBLE_EQ(pm.admitted_volume, 4.0);
  EXPECT_DOUBLE_EQ(pm.assigned_volume, 4.0);
  EXPECT_EQ(pm.admitted_queries, 1u);
  EXPECT_EQ(pm.total_queries, 1u);
  EXPECT_DOUBLE_EQ(pm.throughput, 1.0);
  EXPECT_EQ(pm.replicas_placed, 1u);
  EXPECT_GT(pm.utilization, 0.0);
}

TEST(Evaluate, EmptyPlanIsZero) {
  const Instance inst = TinyFixture::make();
  const ReplicaPlan plan(inst);
  const PlanMetrics pm = evaluate(plan);
  EXPECT_DOUBLE_EQ(pm.admitted_volume, 0.0);
  EXPECT_DOUBLE_EQ(pm.throughput, 0.0);
  EXPECT_EQ(pm.replicas_placed, 0u);
}

TEST(Evaluate, PartialAssignmentIsNotAdmission) {
  // Two-demand query with only one demand assigned.
  Graph g;
  const NodeId cl = g.add_node(NodeRole::kCloudlet);
  Instance inst(std::move(g));
  const SiteId s = inst.add_site(cl, 100.0, 0.01);
  const DatasetId d0 = inst.add_dataset(2.0, s);
  const DatasetId d1 = inst.add_dataset(3.0, s);
  inst.add_query(s, 1.0, 100.0, {{d0, 0.5}, {d1, 0.5}});
  inst.finalize();
  ReplicaPlan plan(inst);
  plan.place_replica(d0, s);
  plan.assign(0, d0, s);
  EXPECT_FALSE(plan.admitted(0));
  const PlanMetrics pm = evaluate(plan);
  EXPECT_DOUBLE_EQ(pm.admitted_volume, 0.0);
  EXPECT_DOUBLE_EQ(pm.assigned_volume, 2.0);
  EXPECT_DOUBLE_EQ(pm.throughput, 0.0);
}

TEST(Validate, AcceptsLegalPlan) {
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);
  const ValidationResult vr = validate(plan);
  EXPECT_TRUE(vr.ok) << (vr.violations.empty() ? "" : vr.violations[0]);
}

TEST(Validate, DetectsDeadlineViolation) {
  // Deadline 1.0: the DC (delay 2.4) is infeasible.  Bypass the algorithm
  // layer and assign there directly; the validator must object.
  const Instance inst = TinyFixture::make(/*deadline=*/1.0);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 1);
  plan.assign(0, 0, 1);  // plan allows it (capacity ok); constraint (4) broken
  const ValidationResult vr = validate(plan);
  ASSERT_FALSE(vr.ok);
  EXPECT_NE(vr.violations[0].find("deadline"), std::string::npos);
}

TEST(Validate, EmptyPlanIsValid) {
  const Instance inst = TinyFixture::make();
  const ReplicaPlan plan(inst);
  EXPECT_TRUE(validate(plan).ok);
}

}  // namespace
}  // namespace edgerep
