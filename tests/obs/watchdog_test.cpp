// Watchdog facet: detector primitives against hand-computed fixtures,
// open/resolve hysteresis of every detector, and the determinism contract —
// the alert stream (and the journal carrying it) matches its golden
// (tests/golden/watchdog_alerts.journal), is bit-identical across repeated
// runs and stream thread counts, and `analyze_journal` reconstructs it
// bit-exactly from the kAlert records alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "helpers/fixtures.h"
#include "helpers/golden.h"
#include "obs/audit.h"
#include "obs/obs.h"
#include "obs/postmortem.h"
#include "obs/recorder.h"
#include "obs/watchdog.h"
#include "sim/online.h"
#include "stream/stream_engine.h"
#include "workload/arrival_gen.h"
#include "workload/fault_gen.h"

namespace edgerep {
namespace {

// --- detector primitives --------------------------------------------------

TEST(WatchdogEwmaTest, SeedsOnFirstSampleThenBlends) {
  obs::WatchdogEwma e{0.5};
  EXPECT_FALSE(e.primed);
  e.feed(4.0);
  EXPECT_TRUE(e.primed);
  EXPECT_EQ(e.value, 4.0);  // first sample seeds, no blend
  e.feed(8.0);
  EXPECT_EQ(e.value, 6.0);  // 4 + 0.5·(8 − 4)
  e.feed(2.0);
  EXPECT_EQ(e.value, 4.0);  // 6 + 0.5·(2 − 6)
}

TEST(WatchdogCusumTest, WarmupFixesTargetThenAccumulatesExcess) {
  obs::WatchdogCusum c(/*warmup=*/2, /*slack=*/0.5, /*threshold=*/1.0);
  EXPECT_FALSE(c.warmed());
  EXPECT_FALSE(c.feed(1.0));
  EXPECT_FALSE(c.feed(3.0));  // warmup ends: target = (1 + 3) / 2
  EXPECT_TRUE(c.warmed());
  EXPECT_EQ(c.target(), 2.0);
  EXPECT_FALSE(c.feed(3.0));  // pos = 3 − 2 − 0.5 = 0.5, below threshold
  EXPECT_EQ(c.statistic(), 0.5);
  EXPECT_TRUE(c.feed(4.0));  // pos = 0.5 + 1.5 = 2.0 > 1.0
  EXPECT_EQ(c.statistic(), 2.0);
  EXPECT_FALSE(c.feed(1.0));  // pos = 2.0 − 1.5 = 0.5
  EXPECT_EQ(c.statistic(), 0.5);
  c.rearm();
  EXPECT_EQ(c.statistic(), 0.0);
  EXPECT_EQ(c.target(), 2.0);  // rearm keeps the warmed-up target
  EXPECT_TRUE(c.feed(4.0));    // pos = 1.5 > 1.0 again
}

TEST(WatchdogCusumTest, NegativeExcessClampsAtZero) {
  obs::WatchdogCusum c(/*warmup=*/1, /*slack=*/0.0, /*threshold=*/1.0);
  EXPECT_FALSE(c.feed(2.0));  // target = 2
  EXPECT_FALSE(c.feed(0.0));  // 0 − 2 clamps to 0, not −2
  EXPECT_EQ(c.statistic(), 0.0);
  EXPECT_FALSE(c.feed(3.0));  // evidence restarts from 0: pos = 1.0
  EXPECT_EQ(c.statistic(), 1.0);
}

TEST(WatchdogCusumTest, PresetTargetSkipsWarmup) {
  obs::WatchdogCusum c(/*warmup=*/4, /*slack=*/0.0, /*threshold=*/1.0);
  c.preset_target(2.0);
  EXPECT_TRUE(c.warmed());
  EXPECT_EQ(c.target(), 2.0);
  EXPECT_FALSE(c.feed(2.5));  // pos = 0.5
  EXPECT_TRUE(c.feed(3.5));   // pos = 2.0 > 1.0
}

TEST(WatchdogPageHinkleyTest, AlarmsOnUpwardMeanShift) {
  obs::WatchdogPageHinkley ph(/*delta=*/0.0, /*lambda=*/0.5);
  EXPECT_FALSE(ph.feed(1.0));
  EXPECT_EQ(ph.statistic(), 0.0);  // x − running mean = 0 while flat
  EXPECT_FALSE(ph.feed(1.0));
  EXPECT_EQ(ph.statistic(), 0.0);
  EXPECT_TRUE(ph.feed(2.0));  // mean = 1 + 1/3, cum = 2 − mean > 0.5
  const double mean = 1.0 + (2.0 - 1.0) / 3.0;
  EXPECT_EQ(ph.mean(), mean);
  EXPECT_EQ(ph.statistic(), 2.0 - mean);
  ph.reset();
  EXPECT_EQ(ph.samples(), 0u);
  EXPECT_EQ(ph.statistic(), 0.0);
}

TEST(SpaceSavingSketchTest, EvictionInheritsCountAsError) {
  obs::SpaceSavingSketch sk(2);
  sk.feed(7);
  sk.feed(7);
  sk.feed(3);
  EXPECT_EQ(sk.estimate(7), 2u);
  EXPECT_EQ(sk.estimate(3), 1u);
  sk.feed(5);  // evicts key 3 (the minimum): error = 1, count = 2
  EXPECT_EQ(sk.estimate(3), 0u);
  EXPECT_EQ(sk.estimate(5), 2u);
  EXPECT_EQ(sk.estimate(7), 2u);
  EXPECT_EQ(sk.total(), 4u);
  ASSERT_EQ(sk.entries().size(), 2u);
  EXPECT_EQ(sk.entries()[1].key, 5u);  // evicted in place
  EXPECT_EQ(sk.entries()[1].error, 1u);
  EXPECT_EQ(sk.entries()[0].error, 0u);
}

TEST(SpaceSavingSketchTest, TiesEvictFirstMinimumInSlotOrder) {
  obs::SpaceSavingSketch sk(2);
  sk.feed(1);
  sk.feed(2);  // both counts 1: the tie must break on slot 0
  sk.feed(9);
  EXPECT_EQ(sk.estimate(1), 0u);
  EXPECT_EQ(sk.estimate(2), 1u);
  EXPECT_EQ(sk.estimate(9), 2u);
  EXPECT_EQ(sk.entries()[0].key, 9u);
}

// --- the facet ------------------------------------------------------------

class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_all_enabled(false);
    obs::set_recorder_enabled(false);
    obs::set_watchdog_enabled(false);
    obs::recorder().configure(obs::RecorderMode::kFull);
    obs::watchdog().set_config(obs::WatchdogConfig{});
    obs::watchdog().begin_run();
  }
  void TearDown() override {
    obs::watchdog().set_config(obs::WatchdogConfig{});
    obs::recorder().clear();
    obs::init_from_env();
  }

  /// Thresholds loose enough that a small faulted online run trips several
  /// detectors (the determinism pins compare live alert streams, so they
  /// need streams with actual content).
  static obs::WatchdogConfig sensitive_config() {
    obs::WatchdogConfig cfg;
    cfg.hotspot_warmup = 8;
    cfg.hotspot_open_share = 0.2;
    cfg.hotspot_resolve_share = 0.12;
    cfg.arrival_window = 0.5;
    cfg.rate_warmup = 2;
    cfg.rate_cusum_slack = 0.05;
    cfg.rate_cusum_threshold = 0.25;
    cfg.rate_resolve_ratio = 1.05;
    cfg.site_warmup = 2;
    cfg.site_ph_delta = 0.0;
    cfg.site_ph_lambda = 0.05;
    cfg.site_open_floor = 0.05;
    cfg.breach_warmup = 2;
    cfg.breach_open_level = 0.05;
    cfg.breach_resolve_level = 0.01;
    cfg.stretch_warmup = 1;
    cfg.stretch_open_seconds = 0.01;
    cfg.stretch_resolve_seconds = 0.005;
    return cfg;
  }

  static void expect_same_alerts(const std::vector<obs::Alert>& lhs,
                                 const std::vector<obs::Alert>& rhs) {
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i].onset, rhs[i].onset) << "alert " << i;
      EXPECT_EQ(lhs[i].resolve, rhs[i].resolve) << "alert " << i;
      EXPECT_EQ(lhs[i].kind, rhs[i].kind) << "alert " << i;
      EXPECT_EQ(lhs[i].severity, rhs[i].severity) << "alert " << i;
      EXPECT_EQ(lhs[i].subject_kind, rhs[i].subject_kind) << "alert " << i;
      EXPECT_EQ(lhs[i].subject, rhs[i].subject) << "alert " << i;
      EXPECT_EQ(lhs[i].seq, rhs[i].seq) << "alert " << i;
      EXPECT_EQ(lhs[i].onset_value, rhs[i].onset_value) << "alert " << i;
      EXPECT_EQ(lhs[i].threshold, rhs[i].threshold) << "alert " << i;
      EXPECT_EQ(lhs[i].resolve_value, rhs[i].resolve_value) << "alert " << i;
    }
  }
};

TEST_F(WatchdogTest, NotPartOfSetAllEnabled) {
  obs::set_all_enabled(true);
  EXPECT_FALSE(obs::watchdog_enabled());  // like the recorder: explicit only
  obs::set_watchdog_enabled(true);
  EXPECT_TRUE(obs::watchdog_enabled());
  obs::set_all_enabled(false);
  EXPECT_TRUE(obs::watchdog_enabled());  // and set_all does not clear it
  obs::set_watchdog_enabled(false);
}

TEST_F(WatchdogTest, EnvironmentVariableGrammar) {
  ::setenv("EDGEREP_WATCHDOG", "1", 1);
  obs::init_from_env();
  EXPECT_TRUE(obs::watchdog_enabled());
  ::setenv("EDGEREP_WATCHDOG", "0", 1);
  obs::init_from_env();
  EXPECT_FALSE(obs::watchdog_enabled());
  ::setenv("EDGEREP_WATCHDOG", "", 1);
  obs::init_from_env();
  EXPECT_FALSE(obs::watchdog_enabled());
  ::setenv("EDGEREP_WATCHDOG", "on", 1);
  obs::init_from_env();
  EXPECT_TRUE(obs::watchdog_enabled());
  ::unsetenv("EDGEREP_WATCHDOG");
  obs::init_from_env();
  EXPECT_FALSE(obs::watchdog_enabled());
}

TEST_F(WatchdogTest, HotspotOpensAndResolvesWithHysteresis) {
  obs::WatchdogConfig cfg;
  cfg.hotspot_warmup = 4;  // defaults otherwise: open 0.35 / resolve 0.22
  obs::Watchdog& wd = obs::watchdog();
  wd.set_config(cfg);
  wd.begin_run();

  // 4 demands on dataset 1: share 1.0 crosses open (and critical) at the
  // warmup boundary.  15 demands on dataset 2 afterwards: dataset 2 opens
  // at share 3/7, dataset 1 drops below 0.22 exactly at feed 19 (4/19).
  for (int i = 1; i <= 4; ++i) wd.on_demand(static_cast<double>(i), 1);
  for (int i = 5; i <= 19; ++i) wd.on_demand(static_cast<double>(i), 2);

  const std::vector<obs::Alert> alerts = wd.alerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].kind, obs::AlertKind::kDatasetHotspot);
  EXPECT_EQ(alerts[0].subject_kind, obs::AlertSubjectKind::kDataset);
  EXPECT_EQ(alerts[0].subject, 1u);
  EXPECT_EQ(alerts[0].severity, obs::AlertSeverity::kCritical);  // 1.0 > 0.6
  EXPECT_EQ(alerts[0].onset, 4.0);
  EXPECT_EQ(alerts[0].onset_value, 1.0);
  EXPECT_EQ(alerts[0].threshold, 0.35);
  EXPECT_EQ(alerts[0].resolve, 19.0);
  EXPECT_EQ(alerts[0].resolve_value, 4.0 / 19.0);
  EXPECT_EQ(alerts[1].subject, 2u);
  EXPECT_EQ(alerts[1].severity, obs::AlertSeverity::kWarning);
  EXPECT_EQ(alerts[1].onset, 7.0);
  EXPECT_EQ(alerts[1].onset_value, 3.0 / 7.0);
  EXPECT_LT(alerts[1].resolve, 0.0);  // still open

  const obs::WatchdogStats s = wd.stats();
  EXPECT_EQ(s.opened, 2u);
  EXPECT_EQ(s.resolved, 1u);
  EXPECT_EQ(s.open_at_end, 1u);
  EXPECT_EQ(s.worst_severity,
            static_cast<std::uint8_t>(obs::AlertSeverity::kCritical));
  EXPECT_EQ(s.opened_by_kind[static_cast<std::size_t>(
                obs::AlertKind::kDatasetHotspot)],
            2u);
}

TEST_F(WatchdogTest, BreachBurstOpensOnFailuresAndResolvesOnSuccess) {
  obs::WatchdogConfig cfg;
  cfg.breach_warmup = 4;
  cfg.breach_ewma_alpha = 0.5;  // defaults: open 0.2 / resolve 0.05
  obs::Watchdog& wd = obs::watchdog();
  wd.set_config(cfg);
  wd.begin_run();

  // 4 breaches hold the EWMA at 1.0; the alert opens critical the moment
  // the warmup lifts.  Each success then halves the level: 0.5, 0.25,
  // 0.125, 0.0625, 0.03125 — resolution exactly at the 5th success.
  for (int i = 1; i <= 2; ++i)
    wd.on_completion(static_cast<double>(i), 0.0, /*failed=*/true);
  for (int i = 3; i <= 4; ++i)
    wd.on_completion(static_cast<double>(i), -1.0, /*failed=*/false);
  for (int i = 5; i <= 9; ++i)
    wd.on_completion(static_cast<double>(i), 1.0, /*failed=*/false);

  const std::vector<obs::Alert> alerts = wd.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, obs::AlertKind::kBreachBurst);
  EXPECT_EQ(alerts[0].severity, obs::AlertSeverity::kCritical);  // 1.0 > 0.5
  EXPECT_EQ(alerts[0].onset, 4.0);
  EXPECT_EQ(alerts[0].onset_value, 1.0);
  EXPECT_EQ(alerts[0].threshold, 0.2);
  EXPECT_EQ(alerts[0].resolve, 9.0);
  EXPECT_EQ(alerts[0].resolve_value, 0.03125);
}

TEST_F(WatchdogTest, SiteOverloadResolvesThenReopensCritical) {
  obs::WatchdogConfig cfg;
  cfg.site_ewma_alpha = 1.0;  // EWMA tracks the raw sample exactly
  cfg.site_warmup = 2;
  cfg.site_ph_delta = 0.0;
  cfg.site_ph_lambda = 0.1;
  cfg.site_open_floor = 0.5;
  cfg.site_resolve_frac = 0.5;
  obs::Watchdog& wd = obs::watchdog();
  wd.set_config(cfg);
  wd.begin_run();

  wd.on_site_util(1.0, 2, 0.2);
  wd.on_site_util(2.0, 2, 0.9);  // PH statistic 0.35 > 0.1 → open warning
  wd.on_site_util(3.0, 2, 0.3);  // 0.3 < 0.9·0.5 → resolve, detector reset
  wd.on_site_util(4.0, 2, 0.2);  // fresh warmup after the reset
  wd.on_site_util(5.0, 2, 0.97);  // reopen, critical this time (> 0.95)

  const std::vector<obs::Alert> alerts = wd.alerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].kind, obs::AlertKind::kSiteOverload);
  EXPECT_EQ(alerts[0].subject_kind, obs::AlertSubjectKind::kSite);
  EXPECT_EQ(alerts[0].subject, 2u);
  EXPECT_EQ(alerts[0].severity, obs::AlertSeverity::kWarning);
  EXPECT_EQ(alerts[0].onset, 2.0);
  // alpha 1.0 still blends (value += 1·(x − value)), so the EWMA carries
  // one rounding step — compare to 4 ULPs, not bit-exactly.
  EXPECT_DOUBLE_EQ(alerts[0].onset_value, 0.9);
  EXPECT_EQ(alerts[0].resolve, 3.0);
  EXPECT_DOUBLE_EQ(alerts[0].resolve_value, 0.3);
  EXPECT_EQ(alerts[1].severity, obs::AlertSeverity::kCritical);
  EXPECT_EQ(alerts[1].onset, 5.0);
  EXPECT_LT(alerts[1].resolve, 0.0);
}

TEST_F(WatchdogTest, ArrivalRateShiftFromWindowedCounts) {
  obs::WatchdogConfig cfg;
  cfg.arrival_window = 1.0;
  cfg.rate_warmup = 2;
  cfg.rate_ewma_alpha = 1.0;  // ratio EWMA tracks the last window exactly
  cfg.rate_cusum_slack = 0.0;
  cfg.rate_cusum_threshold = 1.0;
  cfg.rate_resolve_ratio = 1.25;
  cfg.rate_critical_ratio = 2.0;
  obs::Watchdog& wd = obs::watchdog();
  wd.set_config(cfg);
  wd.begin_run();

  // Two windows of 2 arrivals fix baseline 2/s; a window of 8 (ratio 4)
  // pushes the CUSUM to 3 > 1 at the window-2 boundary.  The next window
  // holds 1 arrival (ratio 0.5 < 1.25), resolving at its boundary; the two
  // empty windows after it stay quiet (the rearmed CUSUM clamps at 0).
  wd.on_arrival(0.1, 0);
  wd.on_arrival(0.2, 0);
  wd.on_arrival(1.1, 0);
  wd.on_arrival(1.2, 0);
  for (int i = 0; i < 8; ++i) wd.on_arrival(2.1 + 0.1 * i, 0);
  wd.on_arrival(3.1, 0);
  wd.on_arrival(6.5, 0);

  const std::vector<obs::Alert> alerts = wd.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, obs::AlertKind::kArrivalRateShift);
  EXPECT_EQ(alerts[0].subject_kind, obs::AlertSubjectKind::kRegion);
  EXPECT_EQ(alerts[0].subject, 0u);
  EXPECT_EQ(alerts[0].severity, obs::AlertSeverity::kCritical);  // 4 > 2
  EXPECT_EQ(alerts[0].onset, 3.0);
  EXPECT_EQ(alerts[0].onset_value, 4.0);
  EXPECT_EQ(alerts[0].threshold, 1.0);  // 1 + slack
  EXPECT_EQ(alerts[0].resolve, 4.0);
  EXPECT_EQ(alerts[0].resolve_value, 0.5);
}

TEST_F(WatchdogTest, FlowStretchSkipsTheNoLinkSentinel) {
  obs::WatchdogConfig cfg;
  cfg.stretch_ewma_alpha = 1.0;
  cfg.stretch_warmup = 2;  // defaults: open 0.5 s / resolve 0.25 s
  obs::Watchdog& wd = obs::watchdog();
  wd.set_config(cfg);
  wd.begin_run();

  wd.on_flow_retire(1.0, obs::kNoAlertLink, 5.0);  // rate-capped: no link
  wd.on_flow_retire(2.0, 3, 1.0);
  wd.on_flow_retire(3.0, 3, 1.0);   // warmup met, 1.0 s > 0.5 s → open
  wd.on_flow_retire(4.0, 3, -2.0);  // early arrival clamps to 0 → resolve

  const std::vector<obs::Alert> alerts = wd.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, obs::AlertKind::kFlowStretch);
  EXPECT_EQ(alerts[0].subject_kind, obs::AlertSubjectKind::kLink);
  EXPECT_EQ(alerts[0].subject, 3u);
  EXPECT_EQ(alerts[0].onset, 3.0);
  EXPECT_EQ(alerts[0].onset_value, 1.0);
  EXPECT_EQ(alerts[0].resolve, 4.0);
  EXPECT_EQ(alerts[0].resolve_value, 0.0);
}

TEST_F(WatchdogTest, WriteJsonCarriesTheAlertCounts) {
  obs::WatchdogConfig cfg;
  cfg.hotspot_warmup = 2;
  obs::Watchdog& wd = obs::watchdog();
  wd.set_config(cfg);
  wd.begin_run();
  wd.on_demand(1.0, 4);
  wd.on_demand(2.0, 4);  // share 1.0 → open
  std::ostringstream os;
  wd.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"opened\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"open\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"dataset_hotspot\""), std::string::npos);
  EXPECT_NE(json.find("\"resolve\":null"), std::string::npos);
}

TEST_F(WatchdogTest, HotspotsResolveInDatasetOrderBesideOpenSiteAlerts) {
  obs::WatchdogConfig cfg;
  cfg.hotspot_warmup = 1;  // shares count from the first demand
  cfg.site_ewma_alpha = 1.0;
  cfg.site_warmup = 2;
  cfg.site_ph_delta = 0.0;
  cfg.site_ph_lambda = 0.1;
  obs::Watchdog& wd = obs::watchdog();
  wd.set_config(cfg);
  wd.begin_run();

  // Three site alerts open first (seq 0-2) and stay open.
  for (const std::uint32_t site : {1u, 4u, 7u}) {
    wd.on_site_util(0.0, site, 0.2);
    wd.on_site_util(0.0, site, 0.9);
  }
  // Hotspots open out of dataset order: 9 at 1/1, 2 at 2/5, 5 at 4/10
  // (seq 3, 4, 5).  Datasets 9 and 2 hold 3 demands each, so both drop
  // below 0.22 on the 14th demand (3/14), while 5 sits at 8/14.
  double t = 1.0;
  const auto feed = [&](std::uint32_t dataset, int n) {
    for (int i = 0; i < n; ++i) wd.on_demand(t++, dataset);
  };
  feed(9, 3);
  feed(2, 3);
  feed(5, 7);
  ASSERT_EQ(wd.stats().open_at_end, 6u);
  wd.clear_transitions();
  feed(5, 1);

  // Both resolutions come from the one feed, in ascending dataset order.
  const std::vector<obs::JournalRecord>& tr = wd.transitions();
  ASSERT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr[0].a, 2u);
  EXPECT_EQ(tr[0].b, 4u);
  EXPECT_EQ(tr[1].a, 9u);
  EXPECT_EQ(tr[1].b, 3u);
  for (const obs::JournalRecord& r : tr) {
    EXPECT_EQ(r.arg,
              static_cast<std::uint8_t>(obs::AlertKind::kDatasetHotspot));
    EXPECT_EQ(r.flags & 1u, 1u);  // resolve
    EXPECT_EQ(r.time, 14.0);
    EXPECT_EQ(r.v0, 3.0 / 14.0);
  }

  const obs::WatchdogStats s = wd.stats();
  EXPECT_EQ(s.opened, 6u);
  EXPECT_EQ(s.resolved, 2u);
  EXPECT_EQ(s.open_at_end, 4u);
  std::ostringstream os;
  wd.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"opened\":6,\"resolved\":2,\"open\":4"),
            std::string::npos)
      << json;
}

TEST_F(WatchdogTest, EnumNamesAreStable) {
  EXPECT_STREQ(obs::to_string(obs::AlertKind::kDatasetHotspot),
               "dataset_hotspot");
  EXPECT_STREQ(obs::to_string(obs::AlertKind::kSiteOverload),
               "site_overload");
  EXPECT_STREQ(obs::to_string(obs::AlertKind::kArrivalRateShift),
               "arrival_rate_shift");
  EXPECT_STREQ(obs::to_string(obs::AlertKind::kBreachBurst), "breach_burst");
  EXPECT_STREQ(obs::to_string(obs::AlertKind::kFlowStretch), "flow_stretch");
  EXPECT_STREQ(obs::to_string(obs::AlertSeverity::kInfo), "info");
  EXPECT_STREQ(obs::to_string(obs::AlertSeverity::kWarning), "warning");
  EXPECT_STREQ(obs::to_string(obs::AlertSeverity::kCritical), "critical");
  EXPECT_STREQ(obs::to_string(obs::AlertSubjectKind::kSite), "site");
  EXPECT_STREQ(obs::to_string(obs::AlertSubjectKind::kDataset), "dataset");
  EXPECT_STREQ(obs::to_string(obs::AlertSubjectKind::kRegion), "region");
  EXPECT_STREQ(obs::to_string(obs::AlertSubjectKind::kLink), "link");
}

// --- determinism across runs and thread counts, pinned by goldens --------

TEST_F(WatchdogTest, AlertStreamIsBitIdenticalAcrossKernelsWithFaults) {
  const Instance inst = testing::medium_instance(11, /*f_max=*/3);
  FaultScenarioConfig fcfg;
  fcfg.horizon = 10.0;
  fcfg.site_crashes = 2;
  fcfg.capacity_losses = 1;
  fcfg.mean_repair_time = 4.0;
  OnlineConfig cfg;
  cfg.seed = 0x5e55;
  cfg.arrival_rate = 40.0;
  cfg.faults = generate_fault_trace(inst, fcfg, 29);

  obs::watchdog().set_config(sensitive_config());
  obs::set_watchdog_enabled(true);
  obs::set_recorder_enabled(true);
  obs::recorder().configure(obs::RecorderMode::kFull);
  const OnlineResult res = run_online(inst, cfg);
  const std::vector<obs::Alert> alerts = obs::watchdog().alerts();
  std::ostringstream os;
  obs::recorder().write(os);
  obs::set_recorder_enabled(false);
  obs::set_watchdog_enabled(false);

  EXPECT_GT(alerts.size(), 0u) << "workload fired no alerts";
  // The journal carries every alert transition as a kAlert record.
  testing::expect_golden_bytes("watchdog_alerts.journal", os.str());
  testing::expect_golden(
      "watchdog/faulted_medium11",
      testing::online_fp(res) + " " + testing::watchdog_fp(res.watchdog));
  // The rollup in OnlineResult is the live facet's rollup.
  EXPECT_EQ(res.watchdog.opened, obs::watchdog().stats().opened);
  EXPECT_EQ(res.watchdog.opened, alerts.size());
}

TEST_F(WatchdogTest, RepeatedRunsYieldIdenticalAlertsAndJournals) {
  const Instance inst = testing::medium_instance(7, /*f_max=*/3);
  OnlineConfig cfg;
  cfg.seed = 0xbeef;
  cfg.arrival_rate = 40.0;

  obs::watchdog().set_config(sensitive_config());
  obs::set_watchdog_enabled(true);
  obs::set_recorder_enabled(true);

  std::vector<obs::Alert> alerts[2];
  std::string journal[2];
  for (int i = 0; i < 2; ++i) {
    obs::recorder().configure(obs::RecorderMode::kFull);
    const OnlineResult res = run_online(inst, cfg);
    (void)res;
    alerts[i] = obs::watchdog().alerts();
    std::ostringstream os;
    obs::recorder().write(os);
    journal[i] = os.str();
  }
  obs::set_recorder_enabled(false);
  obs::set_watchdog_enabled(false);

  EXPECT_GT(alerts[0].size(), 0u);
  expect_same_alerts(alerts[0], alerts[1]);
  EXPECT_EQ(journal[0], journal[1]);
}

TEST_F(WatchdogTest, PostmortemReconstructsAlertsBitExactly) {
  const Instance inst = testing::medium_instance(11, /*f_max=*/3);
  FaultScenarioConfig fcfg;
  fcfg.horizon = 10.0;
  fcfg.site_crashes = 2;
  fcfg.capacity_losses = 1;
  fcfg.mean_repair_time = 4.0;
  OnlineConfig cfg;
  cfg.seed = 0x5e55;
  cfg.arrival_rate = 40.0;
  cfg.faults = generate_fault_trace(inst, fcfg, 29);

  obs::watchdog().set_config(sensitive_config());
  obs::set_watchdog_enabled(true);
  obs::set_recorder_enabled(true);
  obs::recorder().configure(obs::RecorderMode::kFull);
  const OnlineResult res = run_online(inst, cfg);
  const std::vector<obs::Alert> live = obs::watchdog().alerts();
  std::stringstream buf;
  obs::recorder().write(buf);
  obs::set_recorder_enabled(false);
  obs::set_watchdog_enabled(false);

  obs::Journal journal;
  ASSERT_TRUE(obs::read_journal(buf, &journal));
  const obs::PostmortemReport report = obs::analyze_journal(journal);

  ASSERT_GT(live.size(), 0u);
  ASSERT_EQ(report.alerts.size(), live.size());
  EXPECT_EQ(report.alerts_opened, res.watchdog.opened);
  EXPECT_EQ(report.alerts_resolved, res.watchdog.resolved);
  for (std::size_t i = 0; i < live.size(); ++i) {
    const obs::AlertWindow& w = report.alerts[i];
    EXPECT_EQ(w.onset, live[i].onset) << "alert " << i;
    EXPECT_EQ(w.resolve, live[i].resolve) << "alert " << i;
    EXPECT_EQ(w.kind, static_cast<std::uint8_t>(live[i].kind));
    EXPECT_EQ(w.severity, static_cast<std::uint8_t>(live[i].severity));
    EXPECT_EQ(w.subject_kind,
              static_cast<std::uint8_t>(live[i].subject_kind));
    EXPECT_EQ(w.subject, live[i].subject) << "alert " << i;
    EXPECT_EQ(w.seq, live[i].seq) << "alert " << i;
    EXPECT_EQ(w.onset_value, live[i].onset_value) << "alert " << i;
    EXPECT_EQ(w.threshold, live[i].threshold) << "alert " << i;
    EXPECT_EQ(w.resolve_value, live[i].resolve_value) << "alert " << i;
  }

  // The --alerts view renders one line per window plus the header.
  std::ostringstream text;
  obs::write_alerts_text(text, report);
  EXPECT_NE(text.str().find("alerts:"), std::string::npos);
}

TEST_F(WatchdogTest, StreamAlertsAreIdenticalAcrossThreadCounts) {
  StreamWorkloadConfig wc;
  wc.sites = 64;
  wc.datasets = 24;
  wc.queries = 3000;
  wc.zipf_exponent = 1.5;
  wc.zipf_drift_period = 1000;
  const Instance inst = stream_instance(wc, 7);
  // Query-id arrival order keeps the generator's hot-set rotation a
  // *temporal* flash crowd (a shuffled stream would mix the rotated hot
  // datasets uniformly and no single share would cross the threshold).
  const std::vector<Arrival> stream = generate_arrival_stream(
      inst, 1500.0, 0x77aa, ArrivalOrder::kQueryId,
      /*wave_amplitude=*/0.9, /*wave_period=*/0.5);
  StreamOptions opts;
  opts.shards = 4;
  opts.epoch_length = 0.05;

  obs::set_watchdog_enabled(true);
  obs::set_recorder_enabled(true);
  obs::set_audit_enabled(true);
  obs::set_metrics_enabled(true);

  std::vector<obs::Alert> alerts[2];
  std::string journal[2];
  int i = 0;
  for (const bool parallel : {false, true}) {
    obs::recorder().configure(obs::RecorderMode::kFull);
    obs::audit_log().clear();
    StreamOptions o = opts;
    o.parallel = parallel;
    const auto before = testing::counter_values();
    run_stream(inst, stream, o);
    auto after = testing::counter_values();
    after.erase("edgerep_stream_reconcile_ns_total");  // wall clock
    alerts[i] = obs::watchdog().alerts();
    std::ostringstream os;
    obs::recorder().write(os);
    journal[i] = os.str();
    // Every facet of the run is pinned, at any thread count.
    testing::expect_golden(
        "facets/stream_alerts_s4",
        "journal=" + testing::hex64(testing::fnv1a(journal[i])) + " " +
            testing::watchdog_fp(obs::watchdog().stats()) + " " +
            testing::audit_fp(obs::audit_log().snapshot()));
    testing::expect_golden(
        "facets/stream_alerts_s4_counters",
        testing::counter_deltas(before, after, {"edgerep_stream_"}));
    ++i;
  }
  obs::audit_log().clear();
  obs::set_metrics_enabled(false);
  obs::set_audit_enabled(false);
  obs::set_recorder_enabled(false);
  obs::set_watchdog_enabled(false);

  EXPECT_GT(alerts[0].size(), 0u)
      << "drifting-Zipf stream fired no hotspot alerts";
  expect_same_alerts(alerts[0], alerts[1]);
  EXPECT_EQ(journal[0], journal[1]);
}

// A faulted drifting-Zipf run at the default thresholds: its site
// detectors hold dozens of alerts open at once, and dataset hotspots open
// and resolve among them.
TEST_F(WatchdogTest, ManyOpenAlertsStreamIsPinned) {
  StreamWorkloadConfig wc;
  wc.sites = 256;
  wc.queries = 20000;
  wc.datasets = 16;
  wc.max_demands = 3;
  wc.max_replicas = 32;
  wc.volume = {3.0, 4.0};
  wc.zipf_exponent = 2.0;
  wc.zipf_drift_period = 2000;
  Instance inst = stream_instance(wc, 0x3a1e);
  for (const Site& s : inst.sites()) {
    inst.set_available(s.id, 0.02 * s.capacity);
  }
  OnlineConfig cfg;
  cfg.seed = 0x3a1e;
  cfg.arrival_rate = 5000.0;  // 4 s of arrivals
  cfg.wave_amplitude = 0.5;
  cfg.wave_period = 4.0 / 3.0;
  cfg.repair_on_failure = true;
  FaultScenarioConfig fc;
  fc.horizon = 3.2;
  fc.site_crashes = 4;
  fc.capacity_losses = 4;
  fc.mean_repair_time = 0.4;
  fc.cloudlets_only = false;
  cfg.faults = generate_fault_trace(inst, fc, 0x3a1e);

  obs::set_watchdog_enabled(true);
  obs::set_recorder_enabled(true);
  obs::recorder().configure(obs::RecorderMode::kFull);
  const OnlineResult res = run_online(inst, cfg);
  std::ostringstream os;
  obs::recorder().write(os);
  const std::vector<obs::JournalRecord> records = obs::recorder().snapshot();
  obs::set_recorder_enabled(false);
  obs::set_watchdog_enabled(false);

  // The regime the pin is for, read from the journal's kAlert records.
  std::size_t open = 0;
  std::size_t max_open = 0;
  std::size_t sites_open = 0;
  std::size_t hotspot_opens = 0;
  std::size_t hotspot_resolves = 0;
  for (const obs::JournalRecord& r : records) {
    if (r.kind != static_cast<std::uint8_t>(obs::RecordKind::kAlert)) continue;
    const bool resolve = (r.flags & 1u) != 0;
    open = resolve ? open - 1 : open + 1;
    max_open = std::max(max_open, open);
    const auto kind = static_cast<obs::AlertKind>(r.arg);
    if (kind == obs::AlertKind::kSiteOverload) {
      sites_open = resolve ? sites_open - 1 : sites_open + 1;
    } else if (kind == obs::AlertKind::kDatasetHotspot && sites_open > 0) {
      ++(resolve ? hotspot_resolves : hotspot_opens);
    }
  }
  std::size_t kinds = 0;
  for (const std::size_t n : res.watchdog.opened_by_kind) kinds += n > 0;
  EXPECT_GE(max_open, 50u);
  EXPECT_GE(res.watchdog.opened, 200u);
  EXPECT_GE(kinds, 3u);
  EXPECT_GT(hotspot_opens, 0u);
  EXPECT_GT(hotspot_resolves, 0u);
  testing::expect_golden(
      "watchdog/many_open_alerts",
      "journal=" + testing::hex64(testing::fnv1a(os.str())) + " " +
          testing::watchdog_fp(res.watchdog));
}

TEST_F(WatchdogTest, DisabledRunLeavesTheRollupZero) {
  const Instance inst = testing::medium_instance(5, /*f_max=*/3);
  OnlineConfig cfg;
  cfg.seed = 0x77;
  ASSERT_FALSE(obs::watchdog_enabled());
  const OnlineResult res = run_online(inst, cfg);
  EXPECT_EQ(res.watchdog.opened, 0u);
  EXPECT_EQ(res.watchdog.resolved, 0u);
  EXPECT_EQ(res.watchdog.open_at_end, 0u);
  EXPECT_EQ(res.watchdog.worst_severity, 0u);
}

}  // namespace
}  // namespace edgerep
