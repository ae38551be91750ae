#include "obs/audit.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <utility>
#include <string>
#include <vector>

#include "baselines/greedy.h"
#include "core/appro.h"
#include "helpers/fixtures.h"
#include "sim/online.h"
#include "util/rng.h"

namespace edgerep {
namespace {

/// Hand-built cl--sw--dc line (the TinyFixture geometry) with adjustable
/// capacities, replica budget, and query list, so each rejection reason can
/// be provoked deterministically.
///
///   delays for a 4 GB dataset: at cl = 0.8 s, at dc = 2.4 s (home cl)
///                              at dc = 0.2 s, at cl = 3.0 s (home dc)
struct LineInstance {
  static constexpr double kClCap = 10.0;

  /// add_query(home_site, rate, deadline, demands) rows.
  struct QuerySpec {
    SiteId home;
    double rate;
    double deadline;
    std::vector<double> volumes;  ///< one demand per dataset volume, α = 0.5
  };

  static Instance make(const std::vector<QuerySpec>& queries,
                       std::size_t max_replicas, double dc_cap = 100.0) {
    Graph g;
    const NodeId cl = g.add_node(NodeRole::kCloudlet);
    const NodeId sw = g.add_node(NodeRole::kSwitch);
    const NodeId dc = g.add_node(NodeRole::kDataCenter);
    g.add_edge(cl, sw, 0.1);
    g.add_edge(sw, dc, 1.0);
    Instance inst(std::move(g));
    const SiteId s_cl = inst.add_site(cl, kClCap, 0.2);
    const SiteId s_dc = inst.add_site(dc, dc_cap, 0.05);
    (void)s_cl;
    for (const QuerySpec& q : queries) {
      std::vector<DatasetDemand> demands;
      for (const double vol : q.volumes) {
        demands.push_back({inst.add_dataset(vol, s_dc), 0.5});
      }
      inst.add_query(q.home, q.rate, q.deadline, std::move(demands));
    }
    inst.set_max_replicas(max_replicas);
    inst.finalize();
    return inst;
  }
};

class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::audit_log().clear();
    obs::set_audit_enabled(true);
  }
  void TearDown() override {
    obs::set_audit_enabled(false);
    obs::audit_log().clear();
    obs::init_from_env();
  }

  static std::vector<obs::AuditEntry> entries_for(const char* algorithm) {
    std::vector<obs::AuditEntry> out;
    for (const obs::AuditEntry& e : obs::audit_log().snapshot()) {
      if (std::string(e.algorithm) == algorithm) out.push_back(e);
    }
    return out;
  }
};

// The shared classifier on its own: each call to site() is one up,
// deadline-feasible site as (fits, has_replica).
obs::AuditReason classify(bool can_place_replica,
                          std::initializer_list<std::pair<bool, bool>> sites) {
  obs::RejectionClassifier why(can_place_replica);
  for (const auto& [fits, has_replica] : sites) why.site(fits, has_replica);
  return why.reason();
}

TEST(RejectionClassifier, NoSiteMeansNoDeadlineFeasibleSite) {
  EXPECT_EQ(classify(true, {}), obs::AuditReason::kNoDeadlineFeasibleSite);
  EXPECT_EQ(classify(false, {}), obs::AuditReason::kNoDeadlineFeasibleSite);
}

TEST(RejectionClassifier, FittingBareSiteWithBudgetSpentIsBudget) {
  EXPECT_EQ(classify(false, {{false, false}, {true, false}}),
            obs::AuditReason::kReplicaBudgetSpent);
}

TEST(RejectionClassifier, NoFittingSiteIsCapacity) {
  EXPECT_EQ(classify(true, {{false, true}, {false, false}}),
            obs::AuditReason::kCapacityExhausted);
}

TEST(RejectionClassifier, ReactivePlacementOffCountsAsBudgetSpent) {
  // Callers pass can_place_replica = false when reactive placement is off,
  // whatever the replica count: a fitting replica-less site is then
  // budget-bound.
  EXPECT_EQ(classify(false, {{true, false}}),
            obs::AuditReason::kReplicaBudgetSpent);
}

// The two cases where the engines' old definitions of "budget" split.
TEST(RejectionClassifier, FullReplicaSiteAndFittingBareSiteIsBudget) {
  EXPECT_EQ(classify(false, {{false, true}, {true, false}}),
            obs::AuditReason::kReplicaBudgetSpent);
}

TEST(RejectionClassifier, OnlyFullBareSitesIsCapacity) {
  EXPECT_EQ(classify(false, {{false, false}, {false, false}}),
            obs::AuditReason::kCapacityExhausted);
}

// run_online's feed: test the deadline only of a site that could change
// the reason, and stop once it is settled.  It must read the same reason
// as feeding every deadline-feasible site.
TEST(RejectionClassifier, EarlyStopFeedMatchesFullFeed) {
  struct Site {
    bool deadline_ok, fits, has_replica;
  };
  Rng rng(0xc1a55);
  std::size_t stopped_early = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    const bool can_place = rng.bernoulli(0.5);
    const double p_deadline = rng.uniform();
    std::vector<Site> sites(static_cast<std::size_t>(rng.uniform_int(0, 12)));
    for (Site& s : sites) {
      s = {rng.bernoulli(p_deadline), rng.bernoulli(0.5), rng.bernoulli(0.5)};
    }
    obs::RejectionClassifier full(can_place);
    for (const Site& s : sites) {
      if (s.deadline_ok) full.site(s.fits, s.has_replica);
    }
    obs::RejectionClassifier early(can_place);
    std::size_t fed = 0;
    for (const Site& s : sites) {
      if (early.settled()) break;
      ++fed;
      if (early.could_change(s.fits, s.has_replica) && s.deadline_ok) {
        early.site(s.fits, s.has_replica);
      }
    }
    if (fed < sites.size()) ++stopped_early;
    ASSERT_EQ(early.reason(), full.reason()) << "trial " << trial;
  }
  EXPECT_GT(stopped_early, 1000u);
}

TEST_F(AuditTest, AdmittedEntryCarriesSiteAndPriceBreakdown) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/1.0);
  const ApproResult res = appro_g(inst);
  EXPECT_EQ(res.metrics.admitted_queries, 1u);
  const auto entries = entries_for("appro");
  ASSERT_EQ(entries.size(), 1u);
  const obs::AuditEntry& e = entries[0];
  EXPECT_TRUE(e.admitted);
  EXPECT_EQ(e.reason, obs::AuditReason::kAdmitted);
  EXPECT_EQ(e.site, 0u);  // only cl meets the 1.0 s deadline (0.8 < 1 < 2.4)
  EXPECT_TRUE(e.placed_replica);
  EXPECT_GT(e.mu_term, 0.0);  // fresh replica pays the μ surcharge
  EXPECT_EQ(e.theta_term, 0.0);  // first admission: θ not yet raised
  // The logged terms reconstruct the argmin price the scan selected.
  EXPECT_NEAR(e.theta_term + e.capacity_term + e.eta_term + e.mu_term,
              e.total_price, 1e-12);
}

TEST_F(AuditTest, NoDeadlineFeasibleSite) {
  // deadline 0.5 < 0.8: no site can serve the query at all.
  const Instance inst = testing::TinyFixture::make(/*deadline=*/0.5);
  const ApproResult res = appro_g(inst);
  EXPECT_EQ(res.metrics.admitted_queries, 0u);
  const auto entries = entries_for("appro");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(entries[0].admitted);
  EXPECT_EQ(entries[0].reason, obs::AuditReason::kNoDeadlineFeasibleSite);
}

TEST_F(AuditTest, CapacityExhausted) {
  // Both queries fit only at cl (deadline 1.0), each needs 4 GB x 1.5 =
  // 6 GHz of cl's 10: the second finds the lone feasible site full.
  const Instance inst = LineInstance::make(
      {{0, 1.5, 1.0, {4.0}}, {0, 1.5, 1.0, {4.0}}}, /*max_replicas=*/2);
  const ApproResult res = appro_g(inst);
  EXPECT_EQ(res.metrics.admitted_queries, 1u);
  const auto entries = entries_for("appro");
  ASSERT_EQ(entries.size(), 2u);
  std::size_t rejected = 0;
  for (const obs::AuditEntry& e : entries) {
    if (e.admitted) continue;
    ++rejected;
    EXPECT_EQ(e.reason, obs::AuditReason::kCapacityExhausted);
  }
  EXPECT_EQ(rejected, 1u);
}

TEST_F(AuditTest, ReplicaBudgetSpent) {
  // One dataset, K = 1.  The cl-homed query is feasible only at cl, the
  // dc-homed one only at dc (deadline 1.0 on both).  Whichever runs first
  // pins the single replica at its site; the other faces a deadline-feasible
  // site with plenty of room but an exhausted budget.
  Graph g;
  const NodeId cl = g.add_node(NodeRole::kCloudlet);
  const NodeId sw = g.add_node(NodeRole::kSwitch);
  const NodeId dc = g.add_node(NodeRole::kDataCenter);
  g.add_edge(cl, sw, 0.1);
  g.add_edge(sw, dc, 1.0);
  Instance inst(std::move(g));
  const SiteId s_cl = inst.add_site(cl, 10.0, 0.2);
  const SiteId s_dc = inst.add_site(dc, 100.0, 0.05);
  const DatasetId d0 = inst.add_dataset(4.0, s_dc);
  inst.add_query(s_cl, 1.0, 1.0, {{d0, 0.5}});
  inst.add_query(s_dc, 1.0, 1.0, {{d0, 0.5}});
  inst.set_max_replicas(1);
  inst.finalize();

  const ApproResult res = appro_g(inst);
  EXPECT_EQ(res.metrics.admitted_queries, 1u);
  const auto entries = entries_for("appro");
  ASSERT_EQ(entries.size(), 2u);
  std::size_t rejected = 0;
  for (const obs::AuditEntry& e : entries) {
    if (e.admitted) continue;
    ++rejected;
    EXPECT_EQ(e.reason, obs::AuditReason::kReplicaBudgetSpent);
  }
  EXPECT_EQ(rejected, 1u);
}

TEST_F(AuditTest, OnlineFullReplicaSiteAndFittingBareSiteIsBudget) {
  // K = 1: each query's dataset has its one replica at its origin, dc, which
  // has room for one 6 GHz demand.  Query 0 holds dc for its 0.2 s of
  // processing; query 1 arrives 10 ms later, when dc is full and cl (deadline
  // 3.0 s admits both sites) has room but may not get a replica.
  const Instance inst = LineInstance::make(
      {{0, 1.5, 3.0, {4.0}}, {0, 1.5, 3.0, {4.0}}}, /*max_replicas=*/1,
      /*dc_cap=*/6.0);
  OnlineConfig cfg;
  cfg.arrivals = OnlineConfig::Arrivals::kUniform;
  cfg.arrival_rate = 100.0;
  const OnlineResult res = run_online(inst, cfg);
  EXPECT_TRUE(res.outcomes[0].admitted);
  EXPECT_FALSE(res.outcomes[1].admitted);
  const auto entries = entries_for("online");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].reason, obs::AuditReason::kAdmitted);
  EXPECT_EQ(entries[0].site, 1u);
  EXPECT_EQ(entries[1].query, 1u);
  EXPECT_EQ(entries[1].reason, obs::AuditReason::kReplicaBudgetSpent);
}

TEST_F(AuditTest, AtomicRollbackMarksUndoneSiblings) {
  // Demand 0 (4 GB) admits at cl; demand 1 (50 GB) misses every deadline
  // (10 s at cl, 30 s at dc), so the atomic query aborts and demand 0's
  // provisional admission is re-marked as rolled back.
  const Instance inst = LineInstance::make(
      {{0, 1.0, 1.0, {4.0, 50.0}}}, /*max_replicas=*/4);
  ApproOptions opts;
  opts.atomic_queries = true;
  const ApproResult res = appro_g(inst, opts);
  EXPECT_EQ(res.metrics.admitted_queries, 0u);
  const auto entries = entries_for("appro");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_FALSE(entries[0].admitted);
  EXPECT_EQ(entries[0].reason, obs::AuditReason::kAtomicRollback);
  EXPECT_EQ(entries[0].site, 0u);  // forensics: where it briefly ran
  EXPECT_FALSE(entries[1].admitted);
  EXPECT_EQ(entries[1].reason, obs::AuditReason::kNoDeadlineFeasibleSite);

  // The rollback never becomes a query's binding reason: the failing
  // demand's classified reason wins in the summary.
  const obs::AuditSummary s = summarize_audit(entries);
  EXPECT_EQ(s.admitted_queries, 0u);
  EXPECT_EQ(s.rejected_queries, 1u);
  EXPECT_EQ(s.rejected_by_reason[static_cast<std::size_t>(
                obs::AuditReason::kNoDeadlineFeasibleSite)],
            1u);
  EXPECT_EQ(s.rejected_by_reason[static_cast<std::size_t>(
                obs::AuditReason::kAtomicRollback)],
            0u);
}

TEST_F(AuditTest, GreedyLogsUnderItsOwnAlgorithmName) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/0.5);
  const BaselineResult res = greedy_g(inst);
  EXPECT_EQ(res.metrics.admitted_queries, 0u);
  const auto entries = entries_for("greedy");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(entries[0].admitted);
  EXPECT_EQ(entries[0].reason, obs::AuditReason::kNoDeadlineFeasibleSite);
}

TEST_F(AuditTest, DisabledAuditRecordsNothing) {
  obs::set_audit_enabled(false);
  const Instance inst = testing::TinyFixture::make(/*deadline=*/1.0);
  (void)appro_g(inst);
  (void)greedy_g(inst);
  EXPECT_EQ(obs::audit_log().size(), 0u);
}

TEST_F(AuditTest, SummaryReasonsSumToRejectedQueries) {
  const Instance inst = testing::medium_instance(/*seed=*/7);
  const ApproResult res = appro_g(inst);
  const obs::AuditSummary s = summarize_audit(entries_for("appro"));
  EXPECT_EQ(s.admitted_queries, res.metrics.admitted_queries);
  EXPECT_EQ(s.admitted_queries + s.rejected_queries,
            inst.queries().size());
  std::size_t by_reason = 0;
  for (const std::size_t n : s.rejected_by_reason) by_reason += n;
  EXPECT_EQ(by_reason, s.rejected_queries);
}

TEST_F(AuditTest, WriteJsonShape) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/1.0);
  (void)appro_g(inst);
  std::ostringstream os;
  obs::audit_log().write_json(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"entries\""), std::string::npos);
  EXPECT_NE(text.find("\"algorithm\": \"appro\""), std::string::npos);
  EXPECT_NE(text.find("\"price\""), std::string::npos);
  EXPECT_NE(text.find("\"summary\""), std::string::npos);
  EXPECT_NE(text.find("\"admitted_queries\": 1"), std::string::npos);
}

TEST_F(AuditTest, RecordBatchMatchesSingularRecords) {
  std::vector<obs::AuditEntry> batch;
  for (std::uint32_t i = 0; i < 5; ++i) {
    obs::AuditEntry e;
    e.algorithm = "batch_test";
    e.query = i;
    e.demand = i % 2;
    e.admitted = (i % 2) == 0;
    e.reason = e.admitted ? obs::AuditReason::kAdmitted
                          : obs::AuditReason::kCapacityExhausted;
    e.site = i;
    batch.push_back(e);
  }

  obs::AuditLog singular;
  for (const obs::AuditEntry& e : batch) singular.record(e);
  obs::AuditLog batched;
  batched.record_batch(batch);

  const auto a = singular.snapshot();
  const auto b = batched.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_STREQ(a[i].algorithm, b[i].algorithm);
    EXPECT_EQ(a[i].query, b[i].query);
    EXPECT_EQ(a[i].demand, b[i].demand);
    EXPECT_EQ(a[i].admitted, b[i].admitted);
    EXPECT_EQ(a[i].reason, b[i].reason);
    EXPECT_EQ(a[i].site, b[i].site);
  }

  // Batches append after existing entries and an empty batch is a no-op.
  batched.record_batch({});
  EXPECT_EQ(batched.size(), batch.size());
  batched.record_batch(batch);
  EXPECT_EQ(batched.size(), 2 * batch.size());
  EXPECT_EQ(batched.snapshot()[batch.size()].query, 0u);
}

}  // namespace
}  // namespace edgerep
