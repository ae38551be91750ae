#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/appro.h"
#include "helpers/fixtures.h"

namespace edgerep {
namespace {

using testing::TinyFixture;

SimConfig all_at_once() {
  SimConfig cfg;
  cfg.arrivals = SimConfig::Arrivals::kAllAtOnce;
  return cfg;
}

TEST(Simulator, UncontendedResponseEqualsStaticDelay) {
  // Single query at the cloudlet: no queuing, so the measured response must
  // equal the analytic evaluation delay (0.8 s).
  const Instance inst = TinyFixture::make(/*deadline=*/1.0);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);
  const SimReport rep = simulate(plan, all_at_once());
  ASSERT_EQ(rep.outcomes.size(), 1u);
  EXPECT_TRUE(rep.outcomes[0].fully_served);
  EXPECT_NEAR(rep.outcomes[0].response_delay(), TinyFixture::kDelayAtCl, 1e-9);
  EXPECT_TRUE(rep.outcomes[0].met_deadline);
  EXPECT_EQ(rep.admitted_queries, 1u);
  EXPECT_DOUBLE_EQ(rep.admitted_volume, 4.0);
  EXPECT_DOUBLE_EQ(rep.throughput, 1.0);
}

TEST(Simulator, RemoteEvaluationAddsTransfer) {
  const Instance inst = TinyFixture::make(/*deadline=*/3.0);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 1);
  plan.assign(0, 0, 1);
  const SimReport rep = simulate(plan, all_at_once());
  EXPECT_NEAR(rep.outcomes[0].response_delay(), TinyFixture::kDelayAtDc, 1e-9);
  EXPECT_TRUE(rep.outcomes[0].met_deadline);
}

TEST(Simulator, UnassignedQueriesAreNeverServed) {
  const Instance inst = TinyFixture::make();
  const ReplicaPlan plan(inst);  // nothing assigned
  const SimReport rep = simulate(plan, all_at_once());
  EXPECT_FALSE(rep.outcomes[0].fully_served);
  EXPECT_EQ(rep.served_queries, 0u);
  EXPECT_EQ(rep.admitted_queries, 0u);
}

TEST(Simulator, DeadlineMissDetected) {
  // Deadline below the cloudlet's processing time: served but not admitted.
  const Instance inst = TinyFixture::make(/*deadline=*/TinyFixture::kDelayAtCl);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 1);  // evaluate at the slow remote DC instead
  plan.assign(0, 0, 1);      // plan-level capacity fine; deadline broken
  const SimReport rep = simulate(plan, all_at_once());
  EXPECT_TRUE(rep.outcomes[0].fully_served);
  EXPECT_FALSE(rep.outcomes[0].met_deadline);
  EXPECT_EQ(rep.admitted_queries, 0u);
}

Instance three_query_instance() {
  // One site with 6 GHz; three 2-GB queries at rate 1 (2 GHz each) and
  // processing delay 0.5 s/GB → each task runs 1 s holding 2 GHz.
  Graph g;
  const NodeId cl = g.add_node(NodeRole::kCloudlet);
  Instance inst(std::move(g));
  const SiteId s = inst.add_site(cl, 6.0, 0.5);
  const DatasetId d = inst.add_dataset(2.0, s);
  for (int i = 0; i < 3; ++i) {
    inst.add_query(s, 1.0, /*deadline=*/1.5, {{d, 0.5}});
  }
  inst.finalize();
  return inst;
}

ReplicaPlan assign_all(const Instance& inst) {
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  for (const Query& q : inst.queries()) plan.assign(q.id, 0, 0);
  return plan;
}

TEST(Simulator, FullCapacityRunsConcurrently) {
  const Instance inst = three_query_instance();
  const SimReport rep = simulate(assign_all(inst), all_at_once());
  for (const QueryOutcome& o : rep.outcomes) {
    EXPECT_NEAR(o.response_delay(), 1.0, 1e-9);
    EXPECT_TRUE(o.met_deadline);
  }
}

TEST(Simulator, DegradedCapacityCausesQueuingAndMisses) {
  // At 2/3 capacity (4 GHz), only two tasks fit at once: the third waits
  // 1 s, finishes at 2 s, and misses its 1.5 s deadline — contention the
  // static model cannot see.
  const Instance inst = three_query_instance();
  SimConfig cfg = all_at_once();
  cfg.capacity_factor = 2.0 / 3.0;
  const SimReport rep = simulate(assign_all(inst), cfg);
  std::vector<double> responses;
  for (const QueryOutcome& o : rep.outcomes) {
    responses.push_back(o.response_delay());
  }
  std::sort(responses.begin(), responses.end());
  EXPECT_NEAR(responses[0], 1.0, 1e-9);
  EXPECT_NEAR(responses[1], 1.0, 1e-9);
  EXPECT_NEAR(responses[2], 2.0, 1e-9);
  EXPECT_EQ(rep.admitted_queries, 2u);
  EXPECT_EQ(rep.served_queries, 3u);
}

TEST(Simulator, StarvedTaskLeavesQueryUncompleted) {
  // Capacity so low the task can never start: the query must be reported
  // unserved rather than hanging the simulation.
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);
  SimConfig cfg = all_at_once();
  cfg.capacity_factor = 0.1;  // 1 GHz free, task needs 4
  const SimReport rep = simulate(plan, cfg);
  EXPECT_FALSE(rep.outcomes[0].fully_served);
  EXPECT_EQ(rep.served_queries, 0u);
}

TEST(Simulator, PoissonArrivalsAreDeterministicPerSeed) {
  const Instance inst = testing::medium_instance(31, /*f_max=*/2);
  const ApproResult r = appro_g(inst);
  SimConfig cfg;
  cfg.seed = 7;
  const SimReport a = simulate(r.plan, cfg);
  const SimReport b = simulate(r.plan, cfg);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.outcomes[i].issue_time, b.outcomes[i].issue_time);
    EXPECT_DOUBLE_EQ(a.outcomes[i].completion_time,
                     b.outcomes[i].completion_time);
  }
}

TEST(Simulator, UniformArrivalsSpacedByRate) {
  const Instance inst = three_query_instance();
  SimConfig cfg;
  cfg.arrivals = SimConfig::Arrivals::kUniform;
  cfg.arrival_rate = 2.0;  // 0.5 s spacing
  const SimReport rep = simulate(assign_all(inst), cfg);
  EXPECT_NEAR(rep.outcomes[0].issue_time, 0.5, 1e-9);
  EXPECT_NEAR(rep.outcomes[1].issue_time, 1.0, 1e-9);
  EXPECT_NEAR(rep.outcomes[2].issue_time, 1.5, 1e-9);
}

TEST(Simulator, BadArrivalRateThrowsWhenGapsUseIt) {
  const Instance inst = three_query_instance();
  const ReplicaPlan plan = assign_all(inst);
  for (const SimConfig::Arrivals mode :
       {SimConfig::Arrivals::kPoisson, SimConfig::Arrivals::kUniform}) {
    for (const double rate : {0.0, -1.0, std::nan(""),
                              std::numeric_limits<double>::infinity()}) {
      SimConfig cfg;
      cfg.arrivals = mode;
      cfg.arrival_rate = rate;
      EXPECT_THROW(simulate(plan, cfg), std::invalid_argument) << rate;
    }
  }
  // All-at-once arrivals draw no gaps, so the rate is never read.
  SimConfig cfg = all_at_once();
  cfg.arrival_rate = -1.0;
  EXPECT_EQ(simulate(plan, cfg).served_queries, 3u);
}

TEST(Simulator, SimAgreesWithStaticModelAtFullCapacity) {
  // End-to-end consistency: with spread-out arrivals and planned capacity,
  // every statically admitted query must meet its deadline in simulation.
  for (std::uint64_t seed = 41; seed <= 44; ++seed) {
    const Instance inst = testing::medium_instance(seed, /*f_max=*/3);
    const ApproResult r = appro_g(inst);
    SimConfig cfg;
    cfg.arrivals = SimConfig::Arrivals::kAllAtOnce;
    const SimReport rep = simulate(r.plan, cfg);
    EXPECT_EQ(rep.admitted_queries, r.metrics.admitted_queries)
        << "seed " << seed;
    EXPECT_NEAR(rep.admitted_volume, r.metrics.admitted_volume, 1e-6);
  }
}

TEST(SimulatorPs, UncontendedMatchesReservation) {
  // Below capacity, processor sharing runs at full speed: identical to the
  // reservation discipline and to the static model.
  const Instance inst = TinyFixture::make(/*deadline=*/1.0);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);
  SimConfig cfg = all_at_once();
  cfg.discipline = SimConfig::Discipline::kProcessorSharing;
  const SimReport rep = simulate(plan, cfg);
  EXPECT_NEAR(rep.outcomes[0].response_delay(), TinyFixture::kDelayAtCl, 1e-9);
  EXPECT_TRUE(rep.outcomes[0].met_deadline);
}

TEST(SimulatorPs, OverloadSlowsEveryoneEqually) {
  // Three 2-GHz tasks of nominal duration 1 s on 4 GHz (capacity factor
  // 2/3 of 6): total demand 6 GHz → speed 2/3 → all finish at 1.5 s.
  const Instance inst = three_query_instance();
  SimConfig cfg = all_at_once();
  cfg.discipline = SimConfig::Discipline::kProcessorSharing;
  cfg.capacity_factor = 2.0 / 3.0;
  const SimReport rep = simulate(assign_all(inst), cfg);
  for (const QueryOutcome& o : rep.outcomes) {
    EXPECT_NEAR(o.response_delay(), 1.5, 1e-9);
    EXPECT_TRUE(o.met_deadline);  // deadline is 1.5 s
  }
  // Contrast with reservation, where one task finishes at 2.0 s and misses.
  SimConfig res_cfg = cfg;
  res_cfg.discipline = SimConfig::Discipline::kReservation;
  const SimReport res = simulate(assign_all(inst), res_cfg);
  EXPECT_EQ(res.admitted_queries, 2u);
  EXPECT_EQ(rep.admitted_queries, 3u);
}

TEST(SimulatorPs, StaggeredArrivalsChangeRatesMidFlight) {
  // Site planned at 4 GHz but degraded to 2 GHz at runtime; two 2-GHz tasks
  // of nominal duration 1 s, issued at t = 0.5 and t = 1.0:
  //   A runs alone at full speed on [0.5, 1.0] (work 0.5), shares at rate
  //   1/2 on [1.0, 2.0] (work 0.5) → finishes at 2.0, response 1.5 s.
  //   B shares at rate 1/2 on [1.0, 2.0] (work 0.5), runs alone on
  //   [2.0, 2.5] → finishes at 2.5, response 1.5 s.
  Graph g;
  const NodeId cl = g.add_node(NodeRole::kCloudlet);
  Instance inst(std::move(g));
  const SiteId s = inst.add_site(cl, 4.0, 0.5);
  const DatasetId d = inst.add_dataset(2.0, s);
  inst.add_query(s, 1.0, 10.0, {{d, 0.5}});
  inst.add_query(s, 1.0, 10.0, {{d, 0.5}});
  inst.finalize();
  ReplicaPlan plan(inst);
  plan.place_replica(d, 0);
  plan.assign(0, d, 0);
  plan.assign(1, d, 0);
  SimConfig cfg;
  cfg.discipline = SimConfig::Discipline::kProcessorSharing;
  cfg.capacity_factor = 0.5;  // 2 GHz at runtime
  cfg.arrivals = SimConfig::Arrivals::kUniform;
  cfg.arrival_rate = 2.0;  // issue times 0.5 and 1.0
  const SimReport rep = simulate(plan, cfg);
  EXPECT_NEAR(rep.outcomes[0].completion_time, 2.0, 1e-9);
  EXPECT_NEAR(rep.outcomes[1].completion_time, 2.5, 1e-9);
  EXPECT_NEAR(rep.outcomes[0].response_delay(), 1.5, 1e-9);
  EXPECT_NEAR(rep.outcomes[1].response_delay(), 1.5, 1e-9);
}

TEST(SimulatorPs, StarvedSiteReportsUnserved) {
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);
  SimConfig cfg = all_at_once();
  cfg.discipline = SimConfig::Discipline::kProcessorSharing;
  cfg.capacity_factor = 0.0;
  const SimReport rep = simulate(plan, cfg);
  EXPECT_FALSE(rep.outcomes[0].fully_served);
}

TEST(SimulatorPs, DisciplinesAgreeOnUncontendedWorkload) {
  const Instance inst = testing::medium_instance(51, /*f_max=*/3);
  const ApproResult r = appro_g(inst);
  SimConfig res_cfg;
  res_cfg.arrivals = SimConfig::Arrivals::kAllAtOnce;
  SimConfig ps_cfg = res_cfg;
  ps_cfg.discipline = SimConfig::Discipline::kProcessorSharing;
  const SimReport a = simulate(r.plan, res_cfg);
  const SimReport b = simulate(r.plan, ps_cfg);
  EXPECT_EQ(a.admitted_queries, b.admitted_queries);
  EXPECT_NEAR(a.admitted_volume, b.admitted_volume, 1e-6);
}

TEST(Simulator, MakespanAndPercentilesPopulated) {
  const Instance inst = three_query_instance();
  const SimReport rep = simulate(assign_all(inst), all_at_once());
  EXPECT_GT(rep.makespan, 0.0);
  EXPECT_GT(rep.mean_response, 0.0);
  EXPECT_GE(rep.p95_response, rep.mean_response - 1e-9);
  EXPECT_GE(rep.max_response, rep.p95_response - 1e-9);
}

}  // namespace
}  // namespace edgerep
