// Facet outputs pinned against tests/golden/: what the journal, watchdog,
// audit log, sim-clock trace and counters produce for fixed runs.  The
// values were generated before the facets shared one emission path, so
// they pin that every facet still sees the same causal steps in the same
// order.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/appro.h"
#include "core/repair.h"
#include "helpers/fixtures.h"
#include "helpers/golden.h"
#include "obs/audit.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "sim/online.h"
#include "stream/stream_engine.h"
#include "workload/arrival_gen.h"
#include "workload/fault_gen.h"

namespace edgerep {
namespace {

class FacetGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_all_enabled(false);
    obs::set_recorder_enabled(false);
    obs::set_watchdog_enabled(false);
    obs::recorder().configure(obs::RecorderMode::kFull);
    obs::watchdog().set_config(obs::WatchdogConfig{});
    obs::audit_log().clear();
    obs::tracer().clear();
  }
  void TearDown() override {
    obs::watchdog().set_config(obs::WatchdogConfig{});
    obs::recorder().clear();
    obs::audit_log().clear();
    obs::tracer().clear();
    obs::init_from_env();
  }

  static std::string journal_bytes() {
    std::ostringstream os;
    obs::recorder().write(os);
    return os.str();
  }
};

// A contended flow run with the watchdog on: flow-stretch and site alerts
// open at deliveries and admissions, so kAlert records land between the
// kFlowRateChange records the same steps emit.
TEST_F(FacetGolden, FlowAlertsInterleaveRateChanges) {
  StreamWorkloadConfig wc;
  wc.sites = 4;
  wc.queries = 16;
  wc.datasets = 8;
  wc.proc_delay = {0.1, 0.3};
  const Instance inst = stream_instance(wc, 0xf10a);
  OnlineConfig cfg;
  cfg.arrival_rate = 1.5;
  cfg.seed = 0x10ad;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 1.0;
  for (SiteId s = 0; s < 4; ++s) {
    cfg.faults.events.push_back(FaultEvent{2.0 + 0.1 * s,
                                           FaultKind::kCapacityLoss, s,
                                           kInvalidEdge, 0.9});
  }
  obs::WatchdogConfig wd;
  wd.site_warmup = 2;
  wd.site_ph_delta = 0.0;
  wd.site_ph_lambda = 0.05;
  wd.site_open_floor = 0.05;
  wd.breach_warmup = 2;
  wd.breach_open_level = 0.05;
  wd.breach_resolve_level = 0.01;
  wd.stretch_warmup = 1;
  wd.stretch_open_seconds = 0.01;
  wd.stretch_resolve_seconds = 0.005;
  obs::watchdog().set_config(wd);
  obs::set_watchdog_enabled(true);
  obs::set_recorder_enabled(true);
  const OnlineResult res = run_online(inst, cfg);
  obs::set_recorder_enabled(false);
  obs::set_watchdog_enabled(false);

  const std::vector<obs::JournalRecord> records = obs::recorder().snapshot();
  std::size_t interleaved = 0;
  for (std::size_t i = 1; i + 1 < records.size(); ++i) {
    const auto kind = [&](std::size_t j) {
      return static_cast<obs::RecordKind>(records[j].kind);
    };
    if (kind(i) == obs::RecordKind::kAlert &&
        kind(i - 1) == obs::RecordKind::kFlowRateChange &&
        kind(i + 1) == obs::RecordKind::kFlowRateChange) {
      ++interleaved;
    }
  }
  EXPECT_GT(interleaved, 0u) << "no kAlert between two rate changes";
  testing::expect_golden_bytes("flow_alerts.journal", journal_bytes());
  testing::expect_golden("facets/flow_alerts",
                         testing::flow_fp(res) + " " +
                             testing::watchdog_fp(res.watchdog));
}

// Batch repair after a crash and a capacity loss: eviction records (kShed
// flags 2) and re-admission records (kRelocate at time 0) in the journal,
// eviction and pricing entries in the audit log.
TEST_F(FacetGolden, RepairJournalAndAudit) {
  const Instance inst = testing::medium_instance(7);
  const ApproResult solved = appro_g(inst);
  SiteId crashed = 0;
  for (const Site& s : inst.sites()) {
    if (solved.plan.load(s.id) > solved.plan.load(crashed)) crashed = s.id;
  }
  FaultState faults(inst);
  faults.apply({0.0, FaultKind::kSiteDown, crashed, kInvalidEdge, 0.0});
  faults.apply({0.0, FaultKind::kCapacityLoss,
                static_cast<SiteId>((crashed + 1) % inst.sites().size()),
                kInvalidEdge, 0.8});
  const RepairEngine engine(inst);

  obs::set_audit_enabled(true);
  obs::set_recorder_enabled(true);
  ReplicaPlan plan = solved.plan;
  DualState duals = solved.duals;
  const RepairStats st = engine.repair(plan, duals, faults);
  obs::set_recorder_enabled(false);
  obs::set_audit_enabled(false);

  std::size_t evictions = 0;
  std::size_t readmissions = 0;
  for (const obs::JournalRecord& r : obs::recorder().snapshot()) {
    const auto kind = static_cast<obs::RecordKind>(r.kind);
    if (kind == obs::RecordKind::kShed && r.flags == 2) ++evictions;
    if (kind == obs::RecordKind::kRelocate) ++readmissions;
  }
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(readmissions, 0u);
  EXPECT_GT(st.queries_readmitted, 0u);
  testing::expect_golden_bytes("repair_faulted.journal", journal_bytes());
  testing::expect_golden("facets/repair_faulted",
                         testing::audit_fp(obs::audit_log().snapshot()));
}

// The faulted table run behind online/faulted_medium11 with all five
// facets on.
TEST_F(FacetGolden, FaultedOnlineAllFacets) {
  const Instance inst = testing::medium_instance(11, /*f_max=*/3);
  FaultScenarioConfig fcfg;
  fcfg.horizon = 10.0;
  fcfg.site_crashes = 2;
  fcfg.capacity_losses = 1;
  fcfg.mean_repair_time = 4.0;
  OnlineConfig cfg;
  cfg.seed = 0x5e55;
  cfg.faults = generate_fault_trace(inst, fcfg, 29);

  const auto before = testing::counter_values();
  obs::set_all_enabled(true);
  obs::set_recorder_enabled(true);
  obs::set_watchdog_enabled(true);
  const OnlineResult res = run_online(inst, cfg);
  obs::set_watchdog_enabled(false);
  obs::set_recorder_enabled(false);
  obs::set_all_enabled(false);
  const auto after = testing::counter_values();

  testing::expect_golden("online/faulted_medium11", testing::online_fp(res));
  testing::expect_golden(
      "facets/faulted_medium11",
      "journal=" + testing::hex64(testing::fnv1a(journal_bytes())) + " " +
          testing::watchdog_fp(res.watchdog) + " " +
          testing::audit_fp(obs::audit_log().snapshot()) + " " +
          testing::sim_trace_fp(obs::tracer().snapshot()));
  testing::expect_golden(
      "facets/faulted_medium11_counters",
      testing::counter_deltas(before, after,
                              {"edgerep_online_", "edgerep_watchdog_"}));
}

// The faulted drift cells of OnlineGoldenMatrix (table / flow × repair /
// no repair) with all five facets on: relocations or fault failures,
// sheds, rejections and alerts.
class FacetGoldenMatrix : public FacetGolden,
                          public ::testing::WithParamInterface<int> {};

TEST_P(FacetGoldenMatrix, FaultedDriftAllFacets) {
  const bool flow = GetParam() >= 2;
  const bool repair = GetParam() % 2 == 0;
  const std::string name = std::string("facets/matrix/") +
                           (flow ? "flow/" : "table/") +
                           (repair ? "repair" : "norepair") + "/drift";
  StreamWorkloadConfig wc;
  wc.sites = 24;
  wc.queries = 600;
  wc.datasets = 12;
  wc.max_demands = 2;
  wc.avg_degree = 6.0;
  wc.max_replicas = 4;
  wc.capacity = {4.0, 10.0};
  wc.proc_delay = {0.3, 0.8};
  wc.zipf_exponent = 1.2;
  wc.zipf_drift_period = 100;
  const Instance inst = stream_instance(wc, 0x601d);
  OnlineConfig cfg;
  cfg.arrival_rate = 1.5;
  cfg.seed = 0x601d;
  cfg.wave_amplitude = 0.8;
  cfg.wave_period = 4.0;
  if (flow) {
    cfg.network = OnlineNetwork::kFlow;
    cfg.oversubscription = 0.75;
  }
  FaultScenarioConfig fc;
  fc.horizon = 0.8 * static_cast<double>(wc.queries) / cfg.arrival_rate;
  fc.site_crashes = 4;
  fc.capacity_losses = 6;
  fc.link_failures = 2;
  fc.mean_repair_time = fc.horizon / 8.0;
  fc.cloudlets_only = false;
  cfg.faults = generate_fault_trace(inst, fc, 0xfa17);
  cfg.repair_on_failure = repair;

  const auto before = testing::counter_values();
  obs::set_all_enabled(true);
  obs::set_recorder_enabled(true);
  obs::set_watchdog_enabled(true);
  const OnlineResult res = run_online(inst, cfg);
  obs::set_watchdog_enabled(false);
  obs::set_recorder_enabled(false);
  obs::set_all_enabled(false);
  const auto after = testing::counter_values();

  EXPECT_GT(repair ? res.demands_relocated : res.queries_failed_by_fault, 0u);
  EXPECT_GT(res.watchdog.opened, 0u);
  testing::expect_golden(
      name, "journal=" + testing::hex64(testing::fnv1a(journal_bytes())) +
                " " + testing::watchdog_fp(res.watchdog) + " " +
                testing::audit_fp(obs::audit_log().snapshot()) + " " +
                testing::sim_trace_fp(obs::tracer().snapshot()));
  testing::expect_golden(
      name + "/counters",
      testing::counter_deltas(before, after,
                              {"edgerep_online_", "edgerep_watchdog_"}));
}

INSTANTIATE_TEST_SUITE_P(Cells, FacetGoldenMatrix, ::testing::Range(0, 4));

// A stream run whose shards conflict: intents, commits, conflicts,
// re-queues and rejections in the journal, re-queue entries in the audit
// log, and the per-kind stream counters.
TEST_F(FacetGolden, StreamConflictsAllFacets) {
  const Instance inst = testing::medium_instance(13, /*f_max=*/3);
  const std::vector<Arrival> stream =
      generate_arrival_stream(inst, 200.0, 0x57e4);
  StreamOptions opts;
  opts.shards = 4;
  opts.epoch_length = 0.05;

  const auto before = testing::counter_values();
  obs::set_metrics_enabled(true);
  obs::set_audit_enabled(true);
  obs::set_recorder_enabled(true);
  obs::set_watchdog_enabled(true);
  const StreamResult res = run_stream(inst, stream, opts);
  obs::set_watchdog_enabled(false);
  obs::set_recorder_enabled(false);
  obs::set_audit_enabled(false);
  obs::set_metrics_enabled(false);
  auto after = testing::counter_values();
  after.erase("edgerep_stream_reconcile_ns_total");  // wall clock

  EXPECT_GT(res.requeues, 0u);
  testing::expect_golden(
      "facets/stream_conflicts",
      "journal=" + testing::hex64(testing::fnv1a(journal_bytes())) + " " +
          testing::watchdog_fp(obs::watchdog().stats()) + " " +
          testing::audit_fp(obs::audit_log().snapshot()));
  testing::expect_golden(
      "facets/stream_conflicts/counters",
      testing::counter_deltas(before, after, {"edgerep_stream_"}));
}

}  // namespace
}  // namespace edgerep
