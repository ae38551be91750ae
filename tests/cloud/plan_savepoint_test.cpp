// Savepoint/rollback on ReplicaPlan: rollback must restore replica lists
// (including element order), per-replica user counts, assignments, and the
// capacity ledger bit-exactly, and savepoints must nest.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cloud/plan.h"
#include "helpers/fixtures.h"

namespace edgerep {
namespace {

/// Every externally observable piece of plan state, captured for exact
/// comparison after a rollback.
struct PlanSnapshot {
  std::vector<std::vector<SiteId>> replicas;
  std::vector<std::vector<std::size_t>> users;   // per replica, list order
  std::vector<std::vector<SiteId>> assignments;  // kInvalidSite = unassigned
  std::vector<double> loads;

  static PlanSnapshot of(const ReplicaPlan& plan) {
    const Instance& inst = plan.instance();
    PlanSnapshot snap;
    for (const Dataset& d : inst.datasets()) {
      snap.replicas.push_back(plan.replica_sites(d.id));
      std::vector<std::size_t> row;
      for (const SiteId l : plan.replica_sites(d.id)) {
        row.push_back(plan.replica_users(d.id, l));
      }
      snap.users.push_back(std::move(row));
    }
    for (const Query& q : inst.queries()) {
      std::vector<SiteId> row;
      for (const DatasetDemand& dd : q.demands) {
        const auto a = plan.assignment(q.id, dd.dataset);
        row.push_back(a ? *a : kInvalidSite);
      }
      snap.assignments.push_back(std::move(row));
    }
    for (const Site& s : inst.sites()) snap.loads.push_back(plan.load(s.id));
    return snap;
  }

  bool operator==(const PlanSnapshot&) const = default;
};

TEST(PlanSavepoint, RollbackRestoresPlaceAndAssign) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  ReplicaPlan plan(inst);
  const PlanSnapshot before = PlanSnapshot::of(plan);

  const auto sp = plan.savepoint();
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);
  EXPECT_EQ(plan.undo_log_size(), 2u);
  EXPECT_GT(plan.load(0), 0.0);

  plan.rollback_to(sp);
  EXPECT_EQ(plan.undo_log_size(), 0u);
  EXPECT_EQ(PlanSnapshot::of(plan), before);
  EXPECT_EQ(plan.replica_count(0), 0u);
  EXPECT_FALSE(plan.assignment(0, 0).has_value());
  EXPECT_EQ(plan.load(0), 0.0);  // bit-exact, not just near
}

TEST(PlanSavepoint, NestedSavepointsUnwindInLifoOrder) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  ReplicaPlan plan(inst);

  const auto sp_outer = plan.savepoint();
  plan.place_replica(0, 1);
  const PlanSnapshot mid = PlanSnapshot::of(plan);

  const auto sp_inner = plan.savepoint();
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);

  plan.rollback_to(sp_inner);
  EXPECT_EQ(PlanSnapshot::of(plan), mid);
  EXPECT_TRUE(plan.has_replica(0, 1));
  EXPECT_FALSE(plan.has_replica(0, 0));

  plan.rollback_to(sp_outer);
  EXPECT_EQ(plan.replica_count(0), 0u);
  EXPECT_EQ(plan.undo_log_size(), 0u);
}

TEST(PlanSavepoint, RollbackRestoresRemoveReplicaAtOriginalSlot) {
  // Two sites hold replicas; removing the first and rolling back must
  // restore it at its original position, not append it.
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 1);
  plan.place_replica(0, 0);
  const std::vector<SiteId> order_before = plan.replica_sites(0);

  const auto sp = plan.savepoint();
  plan.remove_replica(0, 1);  // erase from the middle/front
  plan.rollback_to(sp);
  plan.commit();

  EXPECT_EQ(plan.replica_sites(0), order_before);
}

TEST(PlanSavepoint, RollbackRestoresUnassignExactly) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);
  const double load_before = plan.load(0);

  const auto sp = plan.savepoint();
  plan.unassign(0, 0);
  EXPECT_EQ(plan.load(0), 0.0);
  plan.rollback_to(sp);

  EXPECT_EQ(*plan.assignment(0, 0), 0u);
  EXPECT_EQ(plan.load(0), load_before);
}

TEST(PlanSavepoint, CommitAcceptsMutationsAndStopsJournaling) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  ReplicaPlan plan(inst);
  const auto sp = plan.savepoint();
  (void)sp;
  plan.place_replica(0, 0);
  plan.commit();
  EXPECT_EQ(plan.undo_log_size(), 0u);
  EXPECT_TRUE(plan.has_replica(0, 0));
  // Journaling is off after commit: mutations no longer grow the log.
  plan.assign(0, 0, 0);
  EXPECT_EQ(plan.undo_log_size(), 0u);
}

TEST(PlanSavepoint, RollbackToStaleSavepointThrows) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  ReplicaPlan plan(inst);
  const auto sp = plan.savepoint();
  plan.place_replica(0, 0);
  const auto stale = plan.savepoint();  // == 1
  plan.rollback_to(sp);
  EXPECT_THROW(plan.rollback_to(stale), std::invalid_argument);
}

TEST(PlanSavepoint, MutationsOutsideTransactionsAreNotJournaled) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);
  plan.unassign(0, 0);
  plan.remove_replica(0, 0);
  EXPECT_EQ(plan.undo_log_size(), 0u);
}

TEST(PlanSavepoint, RolledBackPlanEqualsDiscardedCopy) {
  // The transaction layer's contract: rolling back must leave the plan
  // indistinguishable from having done the work on a copy and thrown the
  // copy away — validated on a random instance with interleaved ops.
  const Instance inst = testing::medium_instance(17, /*f_max=*/3);
  ReplicaPlan plan(inst);
  // Seed some committed state.
  plan.place_replica(0, 0);
  const Query& q0 = inst.query(0);
  const PlanSnapshot committed = PlanSnapshot::of(plan);

  const auto sp = plan.savepoint();
  // Mutate broadly: replicas for several datasets, a few assignments.
  for (DatasetId n = 0; n < 3 && n < inst.datasets().size(); ++n) {
    plan.place_replica(n, static_cast<SiteId>(n % inst.sites().size()));
  }
  for (const DatasetDemand& dd : q0.demands) {
    const double need = resource_demand(inst, q0, dd);
    for (const SiteId l : plan.replica_sites(dd.dataset)) {
      if (plan.fits(l, need)) {
        plan.assign(q0.id, dd.dataset, l);
        break;
      }
    }
  }
  plan.rollback_to(sp);
  plan.commit();
  EXPECT_EQ(PlanSnapshot::of(plan), committed);
  EXPECT_TRUE(validate(plan).ok);
}

// --- per-replica user counts ----------------------------------------------
// remove_replica's in-use check reads a count that assign/unassign keep and
// rollback replays; these pin that the count follows the journal.

TEST(PlanSavepoint, RolledBackAssignLeavesReplicaRemovable) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);

  const auto sp = plan.savepoint();
  plan.assign(0, 0, 0);
  EXPECT_EQ(plan.replica_users(0, 0), 1u);
  plan.rollback_to(sp);
  plan.commit();

  EXPECT_EQ(plan.replica_users(0, 0), 0u);
  EXPECT_NO_THROW(plan.remove_replica(0, 0));
  EXPECT_EQ(plan.replica_count(0), 0u);
}

TEST(PlanSavepoint, RolledBackUnassignKeepsReplicaInUse) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);

  const auto sp = plan.savepoint();
  plan.unassign(0, 0);
  EXPECT_EQ(plan.replica_users(0, 0), 0u);
  plan.rollback_to(sp);
  plan.commit();

  EXPECT_EQ(plan.replica_users(0, 0), 1u);
  EXPECT_THROW(plan.remove_replica(0, 0), std::runtime_error);
  EXPECT_TRUE(plan.has_replica(0, 0));
}

TEST(PlanSavepoint, RolledBackRemoveRestoresSlotAndCount) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 1);
  plan.place_replica(0, 0);

  const auto sp = plan.savepoint();
  plan.remove_replica(0, 1);
  plan.rollback_to(sp);
  plan.commit();

  EXPECT_EQ(plan.replica_sites(0), (std::vector<SiteId>{1, 0}));
  EXPECT_EQ(plan.replica_users(0, 1), 0u);
  // The restored slot counts users again.
  plan.assign(0, 0, 1);
  EXPECT_EQ(plan.replica_users(0, 1), 1u);
  EXPECT_EQ(plan.replica_users(0, 0), 0u);
  EXPECT_THROW(plan.remove_replica(0, 1), std::runtime_error);
  EXPECT_NO_THROW(plan.remove_replica(0, 0));
}

TEST(PlanSavepoint, CopiedPlanCarriesUserCounts) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);

  ReplicaPlan copy = plan;
  EXPECT_EQ(copy.replica_users(0, 0), 1u);
  EXPECT_THROW(copy.remove_replica(0, 0), std::runtime_error);
  copy.unassign(0, 0);
  EXPECT_NO_THROW(copy.remove_replica(0, 0));
  // The original keeps its own count.
  EXPECT_EQ(plan.replica_users(0, 0), 1u);
  EXPECT_THROW(plan.remove_replica(0, 0), std::runtime_error);
}

}  // namespace
}  // namespace edgerep
