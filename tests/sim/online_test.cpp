#include "sim/online.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/appro.h"
#include "helpers/fixtures.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "workload/arrival_gen.h"
#include "workload/fault_gen.h"

namespace edgerep {
namespace {

using testing::TinyFixture;

TEST(Online, AdmitsTheTinyQueryReactively) {
  const Instance inst = TinyFixture::make(/*deadline=*/1.0);
  const OnlineResult r = run_online(inst);
  ASSERT_EQ(r.outcomes.size(), 1u);
  EXPECT_TRUE(r.outcomes[0].admitted);
  EXPECT_EQ(r.admitted_queries, 1u);
  EXPECT_DOUBLE_EQ(r.admitted_volume, 4.0);
  EXPECT_DOUBLE_EQ(r.throughput, 1.0);
  // Completion = arrival + evaluation delay at the (only feasible) cloudlet.
  EXPECT_NEAR(r.outcomes[0].completion_time - r.outcomes[0].arrival_time,
              TinyFixture::kDelayAtCl, 1e-9);
}

TEST(Online, RejectsWhenNothingFeasible) {
  const Instance inst = TinyFixture::make(/*deadline=*/0.05);
  const OnlineResult r = run_online(inst);
  EXPECT_FALSE(r.outcomes[0].admitted);
  EXPECT_EQ(r.admitted_queries, 0u);
}

TEST(Online, WithoutReactiveReplicasOnlyOriginServes) {
  // The dataset's origin is the DC; deadline 1.0 makes only the cloudlet
  // feasible.  With reactive replicas disabled, the query must be rejected.
  const Instance inst = TinyFixture::make(/*deadline=*/1.0);
  OnlineConfig cfg;
  cfg.reactive_replicas = false;
  const OnlineResult r = run_online(inst, cfg);
  EXPECT_FALSE(r.outcomes[0].admitted);
  // A loose deadline lets the origin serve it.
  const Instance loose = TinyFixture::make(/*deadline=*/3.0);
  const OnlineResult r2 = run_online(loose, cfg);
  EXPECT_TRUE(r2.outcomes[0].admitted);
}

TEST(Online, ProactiveSeedBeatsNoReplicasWhenReactionIsOff) {
  const Instance inst = TinyFixture::make(/*deadline=*/1.0);
  const ApproResult offline = appro_s(inst);
  OnlineConfig cfg;
  cfg.reactive_replicas = false;
  const OnlineResult without = run_online(inst, cfg);
  const OnlineResult with = run_online(inst, cfg, &offline.plan);
  EXPECT_EQ(without.admitted_queries, 0u);
  EXPECT_EQ(with.admitted_queries, 1u);
}

TEST(Online, TimeMultiplexingAdmitsMoreThanStaticReservation) {
  // One 4-GHz site; three identical queries each needing 4 GHz for a short
  // processing window.  The static model can admit only one (capacity is
  // reserved forever); online with spread arrivals admits all three.
  Graph g;
  const NodeId cl = g.add_node(NodeRole::kCloudlet);
  Instance inst(std::move(g));
  const SiteId s = inst.add_site(cl, 4.0, 0.05);  // 4 GB × 0.05 = 0.2 s proc
  const DatasetId d = inst.add_dataset(4.0, s);
  for (int i = 0; i < 3; ++i) inst.add_query(s, 1.0, 2.0, {{d, 0.5}});
  inst.set_max_replicas(1);
  inst.finalize();
  const ApproResult offline = appro_g(inst);
  EXPECT_EQ(offline.metrics.admitted_queries, 1u);
  OnlineConfig cfg;
  cfg.arrivals = OnlineConfig::Arrivals::kUniform;
  cfg.arrival_rate = 1.0;  // 1 s spacing ≫ 0.2 s processing
  const OnlineResult online = run_online(inst, cfg);
  EXPECT_EQ(online.admitted_queries, 3u);
}

TEST(Online, BurstArrivalsHitTheCapacityWall) {
  // Same instance, but arrivals far faster than the processing window: the
  // site is busy when the second query lands.
  Graph g;
  const NodeId cl = g.add_node(NodeRole::kCloudlet);
  Instance inst(std::move(g));
  const SiteId s = inst.add_site(cl, 4.0, 1.0);  // 4 s processing
  const DatasetId d = inst.add_dataset(4.0, s);
  for (int i = 0; i < 3; ++i) inst.add_query(s, 1.0, 10.0, {{d, 0.5}});
  inst.set_max_replicas(1);
  inst.finalize();
  OnlineConfig cfg;
  cfg.arrivals = OnlineConfig::Arrivals::kUniform;
  cfg.arrival_rate = 10.0;  // 0.1 s spacing ≪ 4 s processing
  const OnlineResult r = run_online(inst, cfg);
  EXPECT_EQ(r.admitted_queries, 1u);
  EXPECT_GT(r.peak_utilization, 0.9);
}

TEST(Online, DeterministicPerSeed) {
  const Instance inst = testing::medium_instance(5, /*f_max=*/3);
  const OnlineResult a = run_online(inst);
  const OnlineResult b = run_online(inst);
  EXPECT_EQ(a.admitted_queries, b.admitted_queries);
  EXPECT_DOUBLE_EQ(a.admitted_volume, b.admitted_volume);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.outcomes[i].arrival_time, b.outcomes[i].arrival_time);
  }
}

TEST(Online, ReplicaBudgetRespected) {
  const Instance inst = testing::medium_instance(6, /*f_max=*/3);
  const OnlineResult r = run_online(inst);
  for (const Dataset& d : inst.datasets()) {
    EXPECT_LE(r.replica_sites[d.id].size(), inst.max_replicas());
  }
}

// Six identical sites around one switch, so every site gives the query
// the same fill, and a seed plan whose replica list runs in descending
// site id.  Equal fills go to the lowest site id whichever way admission
// walks the sites: the replica list (K spent) or the fill index (K left).
Instance equal_sites_instance(std::size_t max_replicas) {
  Graph g;
  const NodeId sw = g.add_node(NodeRole::kSwitch);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) {
    nodes.push_back(g.add_node(NodeRole::kCloudlet));
    g.add_edge(sw, nodes.back(), 0.1);
  }
  Instance inst(std::move(g));
  for (const NodeId n : nodes) inst.add_site(n, 10.0, 0.1);
  const DatasetId d = inst.add_dataset(2.0, /*origin=*/5);
  inst.add_query(/*home=*/0, 1.0, /*deadline=*/100.0, {{d, 0.5}});
  inst.set_max_replicas(max_replicas);
  inst.finalize();
  return inst;
}

TEST(Online, EqualFillGoesToTheLowestSiteId) {
  for (const std::size_t k : {4, 5}) {
    const Instance inst = equal_sites_instance(k);
    ReplicaPlan seed(inst);
    for (const SiteId s : {5, 4, 3, 2}) seed.place_replica(0, s);
    const OnlineResult r = run_online(inst, {}, &seed);
    ASSERT_TRUE(r.outcomes[0].admitted) << "K = " << k;
    ASSERT_EQ(r.slo.per_site.size(), 1u);
    if (k == 4) {
      // K spent: only the replica sites {5, 4, 3, 2} are admissible.
      EXPECT_EQ(r.slo.per_site[0].site, 2u);
      EXPECT_EQ(r.replica_sites[0], (std::vector<SiteId>{5, 4, 3, 2}));
    } else {
      // K left: every site is, and site 0 gets the new replica.
      EXPECT_EQ(r.slo.per_site[0].site, 0u);
      EXPECT_EQ(r.replica_sites[0], (std::vector<SiteId>{5, 4, 3, 2, 0}));
    }
  }
}

// With loads near zero the fill index leads straight to the winner: a
// site selection over 4096 sites scores a handful of them, not all.
TEST(Online, IdleSitesScoreAFewSitesPerDemand) {
  StreamWorkloadConfig wc;
  wc.sites = 4096;
  wc.queries = 2'000;
  wc.max_demands = 3;
  const Instance inst = stream_instance(wc, 0x4096);
  OnlineConfig cfg;
  cfg.arrival_rate = 1.0;
  const OnlineResult r = run_online(inst, cfg);
  const OnlineKernelStats& ks = r.kernel_stats;
  EXPECT_EQ(r.admitted_queries, inst.queries().size());
  ASSERT_GT(ks.site_selections, inst.queries().size());
  EXPECT_LE(ks.sites_scored, 32 * ks.site_selections);
  EXPECT_GE(ks.deadline_tests, ks.site_selections);
}

TEST(Online, MismatchedProactivePlanThrows) {
  const Instance a = testing::medium_instance(7, /*f_max=*/2);
  const Instance b = testing::medium_instance(8, /*f_max=*/2);
  const ApproResult plan_b = appro_g(b);
  EXPECT_THROW(run_online(a, OnlineConfig{}, &plan_b.plan),
               std::invalid_argument);
}

TEST(Online, BadRateThrows) {
  const Instance inst = TinyFixture::make();
  OnlineConfig cfg;
  cfg.arrival_rate = 0.0;
  EXPECT_THROW(run_online(inst, cfg), std::invalid_argument);
}

TEST(Online, NonFiniteArrivalParametersThrow) {
  const Instance inst = TinyFixture::make();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  for (const double rate : {kInf, nan}) {
    OnlineConfig cfg;
    cfg.arrival_rate = rate;
    EXPECT_THROW(run_online(inst, cfg), std::invalid_argument) << rate;
  }
  for (const double knob : {kInf, nan, -1.0}) {
    OnlineConfig amp;
    amp.wave_amplitude = knob;
    amp.wave_period = 5.0;
    EXPECT_THROW(run_online(inst, amp), std::invalid_argument)
        << "amplitude " << knob;
    OnlineConfig per;
    per.wave_amplitude = 0.5;
    per.wave_period = knob;
    EXPECT_THROW(run_online(inst, per), std::invalid_argument)
        << "period " << knob;
  }
}

// --- deadline-SLO rollup ----------------------------------------------------

TEST(OnlineSlo, FaultFreeRunsHitEveryDeadline) {
  // Admission only ever commits deadline-feasible sites, so without faults
  // the hit ratio is exactly 1 and no slack is negative.
  const Instance inst = testing::medium_instance(5, /*f_max=*/3);
  const OnlineResult r = run_online(inst);
  ASSERT_GT(r.admitted_queries, 0u);
  EXPECT_EQ(r.slo.admitted_queries, r.admitted_queries);
  EXPECT_EQ(r.slo.deadline_hits, r.admitted_queries);
  EXPECT_DOUBLE_EQ(r.slo.hit_ratio, 1.0);
  EXPECT_GE(r.slo.p99_slack, 0.0);
  // Tail ordering: the worst 1% is no better off than the worst 5%, which
  // is no better off than the median.
  EXPECT_LE(r.slo.p99_slack, r.slo.p95_slack);
  EXPECT_LE(r.slo.p95_slack, r.slo.p50_slack);
}

TEST(OnlineSlo, PerSiteRollupCoversEveryAdmittedDemand) {
  const Instance inst = testing::medium_instance(6, /*f_max=*/3);
  const OnlineResult r = run_online(inst);
  std::size_t demands_expected = 0;
  for (const OnlineOutcome& o : r.outcomes) {
    if (o.admitted) demands_expected += inst.query(o.query).demands.size();
  }
  std::size_t demands_seen = 0;
  for (const obs::SiteSlo& s : r.slo.per_site) {
    EXPECT_NE(s.site, kInvalidSite);
    EXPECT_GT(s.demands, 0u);
    EXPECT_LE(s.deadline_hits, s.demands);
    EXPECT_EQ(s.deadline_hits, s.demands);  // fault-free: every demand hits
    EXPECT_LE(s.p99_slack, s.p50_slack);
    demands_seen += s.demands;
  }
  EXPECT_EQ(demands_seen, demands_expected);
}

TEST(OnlineSlo, EmptyRunHasZeroRollup) {
  const Instance inst = TinyFixture::make(/*deadline=*/0.05);  // infeasible
  const OnlineResult r = run_online(inst);
  EXPECT_EQ(r.admitted_queries, 0u);
  EXPECT_EQ(r.slo.admitted_queries, 0u);
  EXPECT_EQ(r.slo.deadline_hits, 0u);
  EXPECT_DOUBLE_EQ(r.slo.hit_ratio, 0.0);
  EXPECT_TRUE(r.slo.per_site.empty());
}

TEST(OnlineSlo, RollupIsDeterministic) {
  const Instance inst = testing::medium_instance(7, /*f_max=*/3);
  const OnlineResult a = run_online(inst);
  const OnlineResult b = run_online(inst);
  EXPECT_EQ(a.slo.deadline_hits, b.slo.deadline_hits);
  EXPECT_DOUBLE_EQ(a.slo.p50_slack, b.slo.p50_slack);
  EXPECT_DOUBLE_EQ(a.slo.p95_slack, b.slo.p95_slack);
  EXPECT_DOUBLE_EQ(a.slo.p99_slack, b.slo.p99_slack);
  ASSERT_EQ(a.slo.per_site.size(), b.slo.per_site.size());
  for (std::size_t i = 0; i < a.slo.per_site.size(); ++i) {
    EXPECT_EQ(a.slo.per_site[i].site, b.slo.per_site[i].site);
    EXPECT_EQ(a.slo.per_site[i].demands, b.slo.per_site[i].demands);
    EXPECT_DOUBLE_EQ(a.slo.per_site[i].p95_slack, b.slo.per_site[i].p95_slack);
  }
}

// --- fault injection --------------------------------------------------------
//
// With uniform arrivals at rate 1, TinyFixture's single query arrives at
// t = 1.0.  A loose deadline (3.0) lets admission pick the DC (site 1,
// least relative fill); processing there is 4 GB × 0.05 = 0.2 s.

OnlineConfig uniform_cfg() {
  OnlineConfig cfg;
  cfg.arrivals = OnlineConfig::Arrivals::kUniform;
  cfg.arrival_rate = 1.0;
  return cfg;
}

TEST(OnlineFaults, CrashRelocatesWorkToTheSurvivor) {
  const Instance inst = TinyFixture::make(/*deadline=*/3.0);
  OnlineConfig cfg = uniform_cfg();
  // DC crashes mid-flight (t = 1.1, work would finish at 1.2).
  cfg.faults.events.push_back(
      {1.1, FaultKind::kSiteDown, 1, kInvalidEdge, 0.0});
  const OnlineResult r = run_online(inst, cfg);
  EXPECT_EQ(r.fault_events_applied, 1u);
  EXPECT_EQ(r.demands_relocated, 1u);
  EXPECT_EQ(r.queries_failed_by_fault, 0u);
  EXPECT_EQ(r.admitted_queries, 1u);
  EXPECT_TRUE(r.outcomes[0].admitted);
  // The DC's replica (the dataset origin) died with it; relocation placed a
  // fresh one at the cloudlet.
  EXPECT_EQ(r.replicas_lost_to_faults, 1u);
  ASSERT_EQ(r.replica_sites[0].size(), 1u);
  EXPECT_EQ(r.replica_sites[0][0], 0);
  // Relocation can only delay completion, never pull it earlier: the
  // original response estimate (arrival + delay at the DC) still dominates
  // the restart at the cloudlet (crash + delay there).
  EXPECT_NEAR(r.outcomes[0].completion_time, 1.0 + TinyFixture::kDelayAtDc,
              1e-9);
}

TEST(OnlineFaults, CrashFailsTheQueryWhenNothingElseIsFeasible) {
  // Deadline 1.0: only the cloudlet is feasible, and the cloudlet is also
  // the query's home — its crash leaves nowhere to relocate or aggregate.
  const Instance inst = TinyFixture::make(/*deadline=*/1.0);
  OnlineConfig cfg = uniform_cfg();
  cfg.faults.events.push_back(
      {1.5, FaultKind::kSiteDown, 0, kInvalidEdge, 0.0});
  const OnlineResult r = run_online(inst, cfg);
  EXPECT_EQ(r.queries_failed_by_fault, 1u);
  EXPECT_EQ(r.demands_relocated, 0u);
  EXPECT_EQ(r.admitted_queries, 0u);
  EXPECT_FALSE(r.outcomes[0].admitted);
  EXPECT_TRUE(r.outcomes[0].failed_by_fault);
  // The reactive replica placed at admission died with the cloudlet.
  EXPECT_EQ(r.replicas_lost_to_faults, 1u);
}

TEST(OnlineFaults, FaultAtTheArrivalInstantResolvesFaultFirst) {
  // Contract: at equal times, fault events precede arrivals.  The query
  // therefore sees its home already down and is rejected at arrival — a
  // rejection, not a mid-flight fault kill.
  const Instance inst = TinyFixture::make(/*deadline=*/3.0);
  OnlineConfig cfg = uniform_cfg();
  cfg.faults.events.push_back(
      {1.0, FaultKind::kSiteDown, 0, kInvalidEdge, 0.0});
  const OnlineResult r = run_online(inst, cfg);
  EXPECT_FALSE(r.outcomes[0].admitted);
  EXPECT_FALSE(r.outcomes[0].failed_by_fault);
  EXPECT_EQ(r.queries_failed_by_fault, 0u);
  EXPECT_EQ(r.admitted_queries, 0u);
}

TEST(OnlineFaults, CapacityLossShedsAndRelocates) {
  // Degrading the DC to 0.1% of its capacity evicts the in-flight demand,
  // which re-seats at the cloudlet.  Degradation loses no data: the DC
  // keeps its origin replica, the cloudlet gains a reactive one.
  const Instance inst = TinyFixture::make(/*deadline=*/3.0);
  OnlineConfig cfg = uniform_cfg();
  cfg.faults.events.push_back(
      {1.1, FaultKind::kCapacityLoss, 1, kInvalidEdge, 0.999});
  const OnlineResult r = run_online(inst, cfg);
  EXPECT_EQ(r.demands_relocated, 1u);
  EXPECT_EQ(r.queries_failed_by_fault, 0u);
  EXPECT_EQ(r.replicas_lost_to_faults, 0u);
  EXPECT_EQ(r.admitted_queries, 1u);
  EXPECT_EQ(r.replica_sites[0].size(), 2u);
}

TEST(OnlineFaults, RepairKnobOffTurnsDisplacementIntoFailure) {
  const Instance inst = TinyFixture::make(/*deadline=*/3.0);
  OnlineConfig cfg = uniform_cfg();
  cfg.faults.events.push_back(
      {1.1, FaultKind::kSiteDown, 1, kInvalidEdge, 0.0});
  cfg.repair_on_failure = false;
  const OnlineResult r = run_online(inst, cfg);
  EXPECT_EQ(r.demands_relocated, 0u);
  EXPECT_EQ(r.queries_failed_by_fault, 1u);
  EXPECT_EQ(r.admitted_queries, 0u);
  EXPECT_TRUE(r.outcomes[0].failed_by_fault);
}

// Relocation reads the same loads as admission, and no admission is open
// while it runs.  Three sites around one switch: A (site 0, 20 GHz), B
// (site 1, 10 GHz) and C (site 2, 100 GHz, 10 s/GB).  Query 0 (4 GHz, loose
// deadline) arrives at t = 1 and takes C, the least-filled site.  Query 1
// (8 GHz, deadline 0.15 s) arrives at t = 2 and can use only A; with
// `second_demand_fails` its second demand fits no site, so it is rejected
// after reserving A.  C crashes at t = 5, once A is idle again, and query
// 0's flight re-seats at the least-filled survivor: A (fill 4/20) over B
// (4/10).  A reservation left over from query 1 would read A as 12/20 and
// pick B.
struct RelocationRun {
  OnlineResult result;
  SiteId relocated_to = kInvalidSite;
};

RelocationRun relocate_after_admission(bool second_demand_fails) {
  Graph g;
  const NodeId sw = g.add_node(NodeRole::kSwitch);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(g.add_node(NodeRole::kCloudlet));
    g.add_edge(sw, nodes.back(), 0.1);
  }
  Instance inst(std::move(g));
  const SiteId a = inst.add_site(nodes[0], 20.0, 0.05);
  inst.add_site(nodes[1], 10.0, 0.1);
  const SiteId c = inst.add_site(nodes[2], 100.0, 10.0);
  const DatasetId d0 = inst.add_dataset(1.0, a);
  const DatasetId d1 = inst.add_dataset(1.0, a);
  inst.add_query(a, 4.0, 100.0, {{d0, 0.5}});
  std::vector<DatasetDemand> demands = {{d1, 0.5}};
  if (second_demand_fails) {
    demands.push_back({inst.add_dataset(20.0, a), 0.5});  // 160 GHz
  }
  inst.add_query(a, 8.0, 0.15, std::move(demands));
  inst.set_max_replicas(3);
  inst.finalize();

  OnlineConfig cfg = uniform_cfg();
  cfg.faults.events.push_back(
      {5.0, FaultKind::kSiteDown, c, kInvalidEdge, 0.0});
  obs::set_all_enabled(false);
  obs::recorder().configure(obs::RecorderMode::kFull);
  obs::set_recorder_enabled(true);
  RelocationRun run{run_online(inst, cfg)};
  obs::set_recorder_enabled(false);
  for (const obs::JournalRecord& rec : obs::recorder().snapshot()) {
    if (static_cast<obs::RecordKind>(rec.kind) == obs::RecordKind::kRelocate) {
      EXPECT_EQ(rec.a, 0u);
      run.relocated_to = rec.site;
    }
  }
  obs::recorder().clear();
  obs::init_from_env();
  EXPECT_EQ(run.result.demands_relocated, 1u);
  EXPECT_EQ(run.result.queries_failed_by_fault, 0u);
  return run;
}

TEST(OnlineFaults, RelocationAfterACommitSeesNoReservation) {
  const RelocationRun run = relocate_after_admission(false);
  EXPECT_TRUE(run.result.outcomes[1].admitted);
  EXPECT_EQ(run.relocated_to, 0u);
}

TEST(OnlineFaults, RelocationAfterARejectSeesNoReservation) {
  const RelocationRun run = relocate_after_admission(true);
  EXPECT_FALSE(run.result.outcomes[1].admitted);
  EXPECT_EQ(run.relocated_to, 0u);
}

TEST(OnlineFaults, InvalidTraceIsRejectedUpFront) {
  const Instance inst = TinyFixture::make();
  OnlineConfig cfg;
  cfg.faults.events.push_back(
      {1.0, FaultKind::kSiteDown, 99, kInvalidEdge, 0.0});
  EXPECT_THROW(run_online(inst, cfg), std::invalid_argument);
}

TEST(OnlineFaults, IdenticalSeedsReproduceFaultedRunsBitExactly) {
  // The determinism contract (sim/online.h): identical (instance, config)
  // inputs — fault trace included — reproduce identical event orderings
  // and outcomes, bit for bit.
  const Instance inst = testing::medium_instance(5, /*f_max=*/3);
  FaultScenarioConfig fcfg;
  fcfg.horizon = 10.0;
  fcfg.site_crashes = 2;
  fcfg.link_failures = 1;
  fcfg.capacity_losses = 1;
  fcfg.mean_repair_time = 4.0;
  OnlineConfig cfg;
  cfg.seed = 0xbeef;
  cfg.faults = generate_fault_trace(inst, fcfg, 17);
  const OnlineResult a = run_online(inst, cfg);
  const OnlineResult b = run_online(inst, cfg);
  EXPECT_EQ(a.fault_events_applied, b.fault_events_applied);
  EXPECT_EQ(a.queries_failed_by_fault, b.queries_failed_by_fault);
  EXPECT_EQ(a.demands_relocated, b.demands_relocated);
  EXPECT_EQ(a.replicas_lost_to_faults, b.replicas_lost_to_faults);
  EXPECT_EQ(a.admitted_queries, b.admitted_queries);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.outcomes[i].arrival_time, b.outcomes[i].arrival_time);
    EXPECT_EQ(a.outcomes[i].admitted, b.outcomes[i].admitted);
    EXPECT_EQ(a.outcomes[i].failed_by_fault, b.outcomes[i].failed_by_fault);
    EXPECT_DOUBLE_EQ(a.outcomes[i].completion_time,
                     b.outcomes[i].completion_time);
  }
  EXPECT_EQ(a.replica_sites, b.replica_sites);
}

TEST(OnlineFaults, SloRollupStaysConsistentUnderFaults) {
  // Faults may push slack negative (relocation restarts work late), but the
  // rollup's internal arithmetic must stay coherent.
  const Instance inst = testing::medium_instance(5, /*f_max=*/3);
  FaultScenarioConfig fcfg;
  fcfg.horizon = 10.0;
  fcfg.site_crashes = 2;
  fcfg.capacity_losses = 1;
  fcfg.mean_repair_time = 4.0;
  OnlineConfig cfg;
  cfg.seed = 0xbeef;
  cfg.faults = generate_fault_trace(inst, fcfg, 17);
  const OnlineResult r = run_online(inst, cfg);
  EXPECT_EQ(r.slo.admitted_queries, r.admitted_queries);
  EXPECT_LE(r.slo.deadline_hits, r.slo.admitted_queries);
  if (r.admitted_queries > 0) {
    EXPECT_DOUBLE_EQ(r.slo.hit_ratio,
                     static_cast<double>(r.slo.deadline_hits) /
                         static_cast<double>(r.admitted_queries));
  }
  EXPECT_LE(r.slo.p99_slack, r.slo.p95_slack);
  EXPECT_LE(r.slo.p95_slack, r.slo.p50_slack);
  for (const obs::SiteSlo& s : r.slo.per_site) {
    EXPECT_LE(s.deadline_hits, s.demands);
  }
}

TEST(OnlineFaults, OutcomesAreIndependentOfFinalizeScheduling) {
  // Thread count enters the pipeline only through Instance::finalize's
  // parallel delay precompute (sizes above kParallelForThreshold); the run
  // itself is single-threaded.  Two independently finalized copies of the
  // same instance — each with its own worker interleaving — must therefore
  // drive byte-identical faulted runs.
  WorkloadConfig wcfg;
  wcfg.network_size = 100;  // > kParallelForThreshold: parallel precompute
  wcfg.min_queries = 40;
  wcfg.max_queries = 40;
  const Instance first = generate_instance(wcfg, 23);
  const Instance second = generate_instance(wcfg, 23);

  FaultScenarioConfig fcfg;
  fcfg.horizon = 8.0;
  fcfg.site_crashes = 2;
  fcfg.link_failures = 2;
  OnlineConfig cfg;
  cfg.seed = 0xd15e;
  cfg.faults = generate_fault_trace(first, fcfg, 41);
  const FaultTrace again = generate_fault_trace(second, fcfg, 41);
  ASSERT_EQ(cfg.faults.size(), again.size());

  const OnlineResult a = run_online(first, cfg);
  OnlineConfig cfg2 = cfg;
  cfg2.faults = again;
  const OnlineResult b = run_online(second, cfg2);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.outcomes[i].arrival_time, b.outcomes[i].arrival_time);
    EXPECT_EQ(a.outcomes[i].admitted, b.outcomes[i].admitted);
    EXPECT_EQ(a.outcomes[i].failed_by_fault, b.outcomes[i].failed_by_fault);
    EXPECT_DOUBLE_EQ(a.outcomes[i].completion_time,
                     b.outcomes[i].completion_time);
  }
  EXPECT_EQ(a.replica_sites, b.replica_sites);
  EXPECT_EQ(a.queries_failed_by_fault, b.queries_failed_by_fault);
  EXPECT_EQ(a.demands_relocated, b.demands_relocated);
}

}  // namespace
}  // namespace edgerep
