#include "core/repair.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cloud/plan_io.h"
#include "core/appro.h"
#include "helpers/fixtures.h"
#include "helpers/golden.h"
#include "obs/audit.h"
#include "obs/obs.h"

namespace edgerep {
namespace {

using testing::medium_instance;
using testing::small_instance;

std::string plan_string(const ReplicaPlan& plan) {
  std::ostringstream os;
  write_plan(os, plan);
  return os.str();
}

SiteId most_loaded_site(const Instance& inst, const ReplicaPlan& plan) {
  SiteId victim = 0;
  for (const Site& s : inst.sites()) {
    if (plan.load(s.id) > plan.load(victim)) victim = s.id;
  }
  return victim;
}

FaultState crash(const Instance& inst, SiteId s) {
  FaultState fs(inst);
  fs.apply({0.0, FaultKind::kSiteDown, s, kInvalidEdge, 0.0});
  return fs;
}

TEST(Repair, NoFaultsIsANoOp) {
  const Instance inst = medium_instance(11);
  const ApproResult solved = appro_g(inst);
  ReplicaPlan plan = solved.plan;
  DualState duals = solved.duals;
  const FaultState clean(inst);
  const RepairEngine engine(inst);
  const RepairStats st = engine.repair(plan, duals, clean);
  EXPECT_EQ(st.queries_evicted, 0u);
  EXPECT_EQ(st.queries_readmitted, 0u);
  EXPECT_EQ(st.replicas_lost, 0u);
  EXPECT_EQ(plan_string(plan), plan_string(solved.plan));
}

TEST(Repair, SingleSiteCrashYieldsAdmissiblePlan) {
  const Instance inst = medium_instance(7);
  const ApproResult solved = appro_g(inst);
  const SiteId victim = most_loaded_site(inst, solved.plan);
  ASSERT_GT(solved.plan.load(victim), 0.0);
  const FaultState faults = crash(inst, victim);
  const RepairEngine engine(inst);

  ReplicaPlan plan = solved.plan;
  DualState duals = solved.duals;
  const RepairStats st = engine.repair(plan, duals, faults);

  EXPECT_GT(st.queries_evicted, 0u);
  const ValidationResult vr = validate_under_faults(plan, faults);
  EXPECT_TRUE(vr.ok) << (vr.violations.empty() ? "" : vr.violations[0]);
  EXPECT_NEAR(plan.load(victim), 0.0, 1e-9);
  EXPECT_TRUE(plan.replica_sites(0).empty() ||
              plan.replica_sites(0)[0] != victim);

  // Untouched queries keep their assignments, so the repaired objective can
  // lose at most the evicted volume.
  const PlanMetrics before = evaluate(solved.plan);
  const PlanMetrics after = evaluate(plan);
  EXPECT_GE(after.admitted_volume,
            before.admitted_volume - st.evicted_volume - 1e-9);
  EXPECT_DOUBLE_EQ(after.admitted_volume, before.admitted_volume -
                                              st.evicted_volume +
                                              st.readmitted_volume);
}

TEST(Repair, RepairIsDeterministic) {
  const Instance inst = medium_instance(7);
  const ApproResult solved = appro_g(inst);
  const FaultState faults =
      crash(inst, most_loaded_site(inst, solved.plan));
  const RepairEngine engine(inst);

  ReplicaPlan plan_a = solved.plan;
  DualState duals_a = solved.duals;
  ReplicaPlan plan_b = solved.plan;
  DualState duals_b = solved.duals;
  engine.repair(plan_a, duals_a, faults);
  engine.repair(plan_b, duals_b, faults);
  // Bit-matching replay: same inputs, same plan, byte for byte.
  EXPECT_EQ(plan_string(plan_a), plan_string(plan_b));
  for (const Site& s : inst.sites()) {
    EXPECT_DOUBLE_EQ(duals_a.theta(s.id), duals_b.theta(s.id));
  }
}

TEST(Repair, IncrementalStaysWithinEvictedVolumeOfOracle) {
  for (const std::uint64_t seed : {7u, 21u, 33u}) {
    const Instance inst = medium_instance(seed);
    const ApproResult solved = appro_g(inst);
    const FaultState faults =
        crash(inst, most_loaded_site(inst, solved.plan));
    const RepairEngine engine(inst);

    ReplicaPlan inc_plan = solved.plan;
    DualState inc_duals = solved.duals;
    const RepairStats inc = engine.repair(inc_plan, inc_duals, faults);

    ReplicaPlan full_plan = solved.plan;
    DualState full_duals = solved.duals;
    RepairOptions oracle;
    oracle.full_recompute = true;
    engine.repair(full_plan, full_duals, faults, oracle);

    EXPECT_TRUE(validate_under_faults(inc_plan, faults).ok);
    EXPECT_TRUE(validate_under_faults(full_plan, faults).ok);
    const double inc_vol = evaluate(inc_plan).admitted_volume;
    const double full_vol = evaluate(full_plan).admitted_volume;
    // The tested objective bound: the incremental result trails the
    // from-scratch oracle by at most the volume the fault displaced.
    EXPECT_GE(inc_vol, full_vol - inc.evicted_volume - 1e-9)
        << "seed " << seed;
  }
}

TEST(Repair, CapacityLossShedsUntilTheSiteFits) {
  const Instance inst = medium_instance(7);
  const ApproResult solved = appro_g(inst);
  const SiteId victim = most_loaded_site(inst, solved.plan);
  const double load = solved.plan.load(victim);
  const double avail = inst.site(victim).available;
  ASSERT_GT(load, 0.0);
  // Degrade the busiest site to half its current load, guaranteeing it
  // overflows and must shed work.
  const double fraction = 1.0 - 0.5 * load / avail;
  FaultState faults(inst);
  faults.apply({0.0, FaultKind::kCapacityLoss, victim, kInvalidEdge, fraction});
  const RepairEngine engine(inst);

  ReplicaPlan plan = solved.plan;
  DualState duals = solved.duals;
  const RepairStats st = engine.repair(plan, duals, faults);
  EXPECT_GT(st.queries_evicted, 0u);
  EXPECT_LE(plan.load(victim), faults.available(victim) + 1e-6);
  EXPECT_TRUE(validate_under_faults(plan, faults).ok);
  // Degradation keeps the site's replicas: only capacity is lost, not data.
  EXPECT_EQ(st.replicas_lost, 0u);
}

TEST(Repair, LinkFaultsEvictDeadlineViolators) {
  // Cut every edge incident to the busiest site's node: its evaluations
  // lose their routes, so deadline-driven evictions must leave the plan
  // admissible under the effective delays.
  const Instance inst = medium_instance(9);
  const ApproResult solved = appro_g(inst);
  const SiteId victim = most_loaded_site(inst, solved.plan);
  FaultState faults(inst);
  const NodeId node = inst.site(victim).node;
  for (EdgeId e = 0; e < inst.graph().num_edges(); ++e) {
    const Edge& edge = inst.graph().edge(e);
    if (edge.u == node || edge.v == node) {
      faults.apply({0.0, FaultKind::kLinkDown, kInvalidSite, e, 0.0});
    }
  }
  ASSERT_TRUE(faults.any_link_down());
  const RepairEngine engine(inst);
  ReplicaPlan plan = solved.plan;
  DualState duals = solved.duals;
  engine.repair(plan, duals, faults);
  EXPECT_TRUE(validate_under_faults(plan, faults).ok);
}

TEST(Repair, AuditRecordsEvictionsUnderTheRepairAlgorithm) {
  const Instance inst = medium_instance(7);
  const ApproResult solved = appro_g(inst);
  const FaultState faults =
      crash(inst, most_loaded_site(inst, solved.plan));
  const RepairEngine engine(inst);

  obs::set_audit_enabled(true);
  obs::audit_log().clear();
  ReplicaPlan plan = solved.plan;
  DualState duals = solved.duals;
  const RepairStats st = engine.repair(plan, duals, faults);
  const auto entries = obs::audit_log().snapshot();
  obs::audit_log().clear();
  obs::set_audit_enabled(false);

  std::size_t evictions = 0;
  for (const obs::AuditEntry& e : entries) {
    EXPECT_STREQ(e.algorithm, "repair");
    if (e.reason == obs::AuditReason::kFaultEvicted) ++evictions;
  }
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(st.queries_evicted, 0u);

  // Observability must not steer the result: an un-instrumented run
  // produces the identical plan.
  ReplicaPlan plain = solved.plan;
  DualState plain_duals = solved.duals;
  engine.repair(plain, plain_duals, faults);
  EXPECT_EQ(plan_string(plan), plan_string(plain));
}

TEST(Repair, RejectsDualsOfAnotherInstance) {
  const Instance inst = medium_instance(7);
  const ApproResult solved = appro_g(inst);
  const FaultState faults =
      crash(inst, most_loaded_site(inst, solved.plan));
  const RepairEngine engine(inst);
  const Instance same_size = medium_instance(9);
  const Instance smaller = small_instance(8);
  ASSERT_EQ(same_size.sites().size(), inst.sites().size());
  ASSERT_LT(smaller.sites().size(), inst.sites().size());
  for (const Instance* other : {&same_size, &smaller}) {
    ReplicaPlan plan = solved.plan;
    DualState duals = appro_g(*other).duals;
    EXPECT_THROW(engine.repair(plan, duals, faults), std::invalid_argument);
    EXPECT_EQ(plan_string(plan), plan_string(solved.plan));
  }
}

/// An audit entry's fields but `algorithm`, doubles as raw bits.
std::string priced_fields(obs::AuditEntry e) {
  e.algorithm = "";
  return testing::audit_fp({e});
}

/// Batch Appro-G and repair's re-admission run one admission step: a full
/// recompute with no fault re-admits every query against the instance's
/// own availabilities, so it must reproduce appro_g's plan, its dual
/// objective and every priced audit entry bit for bit.  The tight instance
/// walks its rows (a few percent of 1000 sites per demand).
TEST(Repair, FaultFreeFullRecomputeIsApproG) {
  std::vector<Instance> instances;
  for (const std::uint64_t seed : {3u, 7u, 11u, 19u, 23u}) {
    instances.push_back(medium_instance(seed));
  }
  instances.push_back(testing::tight_deadline_instance());
  obs::set_audit_enabled(true);
  for (const Instance& inst : instances) {
    SCOPED_TRACE(std::to_string(inst.sites().size()) + " sites, " +
                 std::to_string(inst.queries().size()) + " queries");
    obs::audit_log().clear();
    const ApproResult solved = appro_g(inst);
    const std::vector<obs::AuditEntry> batch = obs::audit_log().snapshot();
    obs::audit_log().clear();

    ReplicaPlan plan = solved.plan;
    DualState duals = solved.duals;
    RepairOptions full;
    full.full_recompute = true;
    RepairEngine(inst).repair(plan, duals, FaultState(inst), full);
    std::vector<obs::AuditEntry> repaired;
    for (const obs::AuditEntry& e : obs::audit_log().snapshot()) {
      if (e.reason != obs::AuditReason::kFaultEvicted) repaired.push_back(e);
    }

    EXPECT_EQ(testing::plan_fp(plan, duals.objective()),
              testing::plan_fp(solved.plan, solved.dual_objective));
    ASSERT_EQ(repaired.size(), batch.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_STREQ(repaired[i].algorithm, "repair");
      differing += priced_fields(repaired[i]) != priced_fields(batch[i]);
    }
    EXPECT_EQ(differing, 0u) << "of " << batch.size() << " entries";
  }
  obs::audit_log().clear();
  obs::set_audit_enabled(false);
}

}  // namespace
}  // namespace edgerep
