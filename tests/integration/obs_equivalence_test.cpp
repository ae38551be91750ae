// Bit-neutrality contract of the observability layer: enabling metrics,
// tracing, and the admission audit must not change a single bit of engine
// output.  Plans (serialized), dual objectives, and simulated reports are
// compared across obs-off and obs-on runs of the same inputs, and the audit
// log's per-query verdicts are cross-checked against the plan's own
// admission counts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "baselines/greedy.h"
#include "cloud/plan_io.h"
#include "core/appro.h"
#include "core/local_search.h"
#include "helpers/fixtures.h"
#include "helpers/golden.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "sim/online.h"
#include "sim/simulator.h"
#include "stream/stream_engine.h"
#include "workload/arrival_gen.h"
#include "workload/fault_gen.h"

namespace edgerep {
namespace {

class ObsEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_all_enabled(false);
    obs::audit_log().clear();
    obs::tracer().clear();
  }
  void TearDown() override {
    obs::set_all_enabled(false);
    obs::audit_log().clear();
    obs::tracer().clear();
    obs::init_from_env();
  }

  static std::string serialize(const ReplicaPlan& plan) {
    std::ostringstream os;
    write_plan(os, plan);
    return os.str();
  }
};

TEST_F(ObsEquivalenceTest, ApproPlanAndDualsAreBitIdentical) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    const Instance inst = testing::medium_instance(seed);

    obs::set_all_enabled(false);
    const ApproResult off = appro_g(inst);

    obs::set_all_enabled(true);
    const ApproResult on = appro_g(inst);
    obs::set_all_enabled(false);

    EXPECT_EQ(serialize(off.plan), serialize(on.plan)) << "seed " << seed;
    EXPECT_EQ(off.dual_objective, on.dual_objective) << "seed " << seed;
    EXPECT_EQ(off.metrics.admitted_queries, on.metrics.admitted_queries);
    EXPECT_EQ(off.metrics.admitted_volume, on.metrics.admitted_volume);
  }
}

TEST_F(ObsEquivalenceTest, GreedyPlanIsBitIdentical) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const Instance inst = testing::medium_instance(seed);

    obs::set_all_enabled(false);
    const BaselineResult off = greedy_g(inst);

    obs::set_all_enabled(true);
    const BaselineResult on = greedy_g(inst);
    obs::set_all_enabled(false);

    EXPECT_EQ(serialize(off.plan), serialize(on.plan)) << "seed " << seed;
    EXPECT_EQ(off.demands_assigned, on.demands_assigned);
    EXPECT_EQ(off.demands_rejected, on.demands_rejected);
  }
}

TEST_F(ObsEquivalenceTest, LocalSearchIsBitIdentical) {
  const Instance inst = testing::medium_instance(5);
  obs::set_all_enabled(false);
  const LocalSearchResult off = improve_plan(appro_g(inst).plan);
  obs::set_all_enabled(true);
  const LocalSearchResult on = improve_plan(appro_g(inst).plan);
  obs::set_all_enabled(false);
  EXPECT_EQ(serialize(off.plan), serialize(on.plan));
  EXPECT_EQ(off.passes, on.passes);
  EXPECT_EQ(off.relocations, on.relocations);
}

TEST_F(ObsEquivalenceTest, SimulatedReportIsBitIdentical) {
  const Instance inst = testing::medium_instance(9);
  obs::set_all_enabled(false);
  const ReplicaPlan plan = appro_g(inst).plan;
  SimConfig cfg;
  cfg.seed = 1234;

  const SimReport off = simulate(plan, cfg);
  obs::set_all_enabled(true);
  const SimReport on = simulate(plan, cfg);
  obs::set_all_enabled(false);

  EXPECT_EQ(off.served_queries, on.served_queries);
  EXPECT_EQ(off.admitted_queries, on.admitted_queries);
  EXPECT_EQ(off.admitted_volume, on.admitted_volume);
  EXPECT_EQ(off.mean_response, on.mean_response);
  EXPECT_EQ(off.p95_response, on.p95_response);
  EXPECT_EQ(off.max_response, on.max_response);
  EXPECT_EQ(off.makespan, on.makespan);
  ASSERT_EQ(off.outcomes.size(), on.outcomes.size());
  for (std::size_t i = 0; i < off.outcomes.size(); ++i) {
    EXPECT_EQ(off.outcomes[i].completion_time, on.outcomes[i].completion_time);
    EXPECT_EQ(off.outcomes[i].met_deadline, on.outcomes[i].met_deadline);
  }
}

TEST_F(ObsEquivalenceTest, OnlineRunIsBitIdentical) {
  // The full telemetry plane — metrics, span tracing, audit, dual-price
  // board, and a live status board — attached to a faulted online run must
  // not change a single bit of the result.
  const Instance inst = testing::medium_instance(11, /*f_max=*/3);
  FaultScenarioConfig fcfg;
  fcfg.horizon = 10.0;
  fcfg.site_crashes = 2;
  fcfg.capacity_losses = 1;
  fcfg.mean_repair_time = 4.0;
  OnlineConfig cfg;
  cfg.seed = 0x5e55;
  cfg.faults = generate_fault_trace(inst, fcfg, 29);

  obs::set_all_enabled(false);
  const OnlineResult off = run_online(inst, cfg);

  obs::set_all_enabled(true);
  OnlineStatusBoard board;
  OnlineConfig cfg_on = cfg;
  cfg_on.status_board = &board;
  const OnlineResult on = run_online(inst, cfg_on);
  obs::set_all_enabled(false);

  // Every contract field (outcomes, aggregates, replicas, fault accounting,
  // SLO rollup), bit for bit.
  EXPECT_EQ(online_result_hash(off), online_result_hash(on));

  // The enabled run really did publish telemetry: the board saw the end of
  // the run and the tracer holds the span timeline.
  EXPECT_TRUE(board.finished());
  EXPECT_EQ(board.read().admitted_queries, on.admitted_queries);
  EXPECT_GT(obs::tracer().size(), 0u);
  obs::tracer().clear();
  obs::audit_log().clear();
  obs::dual_prices().reset();
}

TEST_F(ObsEquivalenceTest, RecorderIsBitNeutralOnOnlineRuns) {
  // The flight recorder is the fourth facet: enabling it (on top of the
  // other three) must leave every contract field of the result untouched.
  const Instance inst = testing::medium_instance(11, /*f_max=*/3);
  FaultScenarioConfig fcfg;
  fcfg.horizon = 10.0;
  fcfg.site_crashes = 2;
  fcfg.capacity_losses = 1;
  fcfg.mean_repair_time = 4.0;
  OnlineConfig cfg;
  cfg.seed = 0x5e55;
  cfg.faults = generate_fault_trace(inst, fcfg, 29);

  obs::set_all_enabled(false);
  obs::set_recorder_enabled(false);
  const OnlineResult off = run_online(inst, cfg);

  obs::set_all_enabled(true);
  obs::recorder().configure(obs::RecorderMode::kFull);
  obs::set_recorder_enabled(true);
  const OnlineResult on = run_online(inst, cfg);
  obs::set_recorder_enabled(false);
  obs::set_all_enabled(false);

  EXPECT_EQ(online_result_hash(off), online_result_hash(on));
  testing::expect_golden("online/faulted_medium11", testing::online_fp(on));
  EXPECT_GT(obs::recorder().size(), 0u)
      << "recorder-on run appended no records";
  obs::recorder().clear();
  obs::audit_log().clear();
  obs::tracer().clear();
}

TEST_F(ObsEquivalenceTest, WatchdogIsBitNeutralOnOnlineRuns) {
  // The watchdog is the fifth facet: with every other facet already on,
  // enabling it (so all five run at once) must leave every contract field
  // of a faulted run untouched — detectors observe the simulation, they
  // never steer it.
  const Instance inst = testing::medium_instance(11, /*f_max=*/3);
  FaultScenarioConfig fcfg;
  fcfg.horizon = 10.0;
  fcfg.site_crashes = 2;
  fcfg.capacity_losses = 1;
  fcfg.mean_repair_time = 4.0;
  OnlineConfig cfg;
  cfg.seed = 0x5e55;
  cfg.faults = generate_fault_trace(inst, fcfg, 29);

  obs::set_all_enabled(false);
  obs::set_watchdog_enabled(false);
  const OnlineResult off = run_online(inst, cfg);

  obs::set_all_enabled(true);
  obs::recorder().configure(obs::RecorderMode::kFull);
  obs::set_recorder_enabled(true);
  obs::set_watchdog_enabled(true);
  const OnlineResult on = run_online(inst, cfg);
  obs::set_watchdog_enabled(false);
  obs::set_recorder_enabled(false);
  obs::set_all_enabled(false);

  EXPECT_EQ(online_result_hash(off), online_result_hash(on));
  testing::expect_golden("online/faulted_medium11", testing::online_fp(on));
  // The off run's rollup stays zeroed; the hash excludes it either way.
  EXPECT_EQ(off.watchdog.opened, 0u);
  obs::recorder().clear();
  obs::audit_log().clear();
  obs::tracer().clear();
  obs::watchdog().begin_run();
}

TEST_F(ObsEquivalenceTest, StreamFacetsAreBitNeutral) {
  // Stream-plane instrumentation (per-epoch counters, reconcile audit
  // entries, journal records) must not change the plan or any count, and
  // the audit log's requeue entries must agree with the result.
  const Instance inst = testing::medium_instance(13, /*f_max=*/3);
  const std::vector<Arrival> stream =
      generate_arrival_stream(inst, 200.0, 0x57e4);
  StreamOptions opts;
  opts.shards = 4;
  opts.epoch_length = 0.05;

  obs::set_all_enabled(false);
  obs::set_recorder_enabled(false);
  const StreamResult off = run_stream(inst, stream, opts);

  obs::set_all_enabled(true);
  obs::recorder().configure(obs::RecorderMode::kFull);
  obs::set_recorder_enabled(true);
  const StreamResult on = run_stream(inst, stream, opts);
  obs::set_recorder_enabled(false);
  obs::set_all_enabled(false);

  EXPECT_EQ(serialize(off.plan), serialize(on.plan));
  EXPECT_EQ(off.epochs, on.epochs);
  EXPECT_EQ(off.queries_admitted, on.queries_admitted);
  EXPECT_EQ(off.queries_rejected, on.queries_rejected);
  EXPECT_EQ(off.requeues, on.requeues);
  EXPECT_EQ(off.conflicts, on.conflicts);
  EXPECT_EQ(off.metrics.admitted_volume, on.metrics.admitted_volume);

  // Per-epoch counters flowed (conflicts/requeues are now incremented
  // inside the epoch loop) and the journal captured the run.
  EXPECT_GE(obs::metrics()
                .counter("edgerep_stream_intents_total")
                .value(),
            on.queries_admitted);
  std::size_t requeue_audits = 0;
  for (const obs::AuditEntry& e : obs::audit_log().snapshot()) {
    if (e.reason == obs::AuditReason::kReconcileConflict) ++requeue_audits;
  }
  EXPECT_EQ(requeue_audits, on.requeues);
  EXPECT_GT(obs::recorder().size(), 0u);
  obs::recorder().clear();
  obs::audit_log().clear();
  obs::tracer().clear();
}

TEST_F(ObsEquivalenceTest, AuditVerdictsMatchPlanAdmissionCounts) {
  // The audit log is not just bit-neutral: its per-query verdicts must agree
  // with the plan, and every rejected query must carry a concrete reason
  // (reasons sum to total - admitted).
  for (const std::uint64_t seed : {2u, 13u}) {
    const Instance inst = testing::medium_instance(seed);
    obs::audit_log().clear();
    obs::set_audit_enabled(true);
    const ApproResult res = appro_g(inst);
    obs::set_audit_enabled(false);

    const obs::AuditSummary s =
        summarize_audit(obs::audit_log().snapshot());
    EXPECT_EQ(s.admitted_queries, res.metrics.admitted_queries)
        << "seed " << seed;
    EXPECT_EQ(s.admitted_queries + s.rejected_queries, inst.queries().size())
        << "seed " << seed;
    std::size_t by_reason = 0;
    for (const std::size_t n : s.rejected_by_reason) by_reason += n;
    EXPECT_EQ(by_reason, inst.queries().size() - res.metrics.admitted_queries)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace edgerep
