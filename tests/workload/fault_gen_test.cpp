#include "workload/fault_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "helpers/fixtures.h"

namespace edgerep {
namespace {

using testing::medium_instance;

bool same_trace(const FaultTrace& a, const FaultTrace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const FaultEvent& x = a.events[i];
    const FaultEvent& y = b.events[i];
    if (x.time != y.time || x.kind != y.kind || x.site != y.site ||
        x.edge != y.edge || x.fraction != y.fraction) {
      return false;
    }
  }
  return true;
}

TEST(FaultGen, PureFunctionOfConfigAndSeed) {
  const Instance inst = medium_instance(3);
  FaultScenarioConfig cfg;
  cfg.site_crashes = 2;
  cfg.link_failures = 2;
  cfg.capacity_losses = 1;
  const FaultTrace a = generate_fault_trace(inst, cfg, 99);
  const FaultTrace b = generate_fault_trace(inst, cfg, 99);
  EXPECT_TRUE(same_trace(a, b));
  const FaultTrace c = generate_fault_trace(inst, cfg, 100);
  EXPECT_FALSE(same_trace(a, c));
}

TEST(FaultGen, DrawsTheConfiguredComponentCountsDistinctly) {
  const Instance inst = medium_instance(3);
  FaultScenarioConfig cfg;
  cfg.site_crashes = 3;
  cfg.capacity_losses = 2;
  cfg.mean_repair_time = 5.0;
  const FaultTrace trace = generate_fault_trace(inst, cfg, 1);
  std::size_t downs = 0;
  std::size_t ups = 0;
  std::size_t losses = 0;
  std::vector<SiteId> crashed;
  for (const FaultEvent& e : trace.events) {
    if (e.kind == FaultKind::kSiteDown) {
      ++downs;
      crashed.push_back(e.site);
    }
    if (e.kind == FaultKind::kSiteUp) ++ups;
    if (e.kind == FaultKind::kCapacityLoss) {
      ++losses;
      EXPECT_GT(e.fraction, 0.0);
      EXPECT_LE(e.fraction, 1.0);
    }
  }
  EXPECT_EQ(downs, 3u);
  EXPECT_EQ(ups, 3u);  // every crash recovers when mttr > 0
  EXPECT_EQ(losses, 2u);
  std::sort(crashed.begin(), crashed.end());
  EXPECT_EQ(std::unique(crashed.begin(), crashed.end()), crashed.end())
      << "scenario crashed the same site twice";
}

TEST(FaultGen, ZeroRepairTimeMeansPermanentFaults) {
  const Instance inst = medium_instance(3);
  FaultScenarioConfig cfg;
  cfg.site_crashes = 2;
  cfg.mean_repair_time = 0.0;
  const FaultTrace trace = generate_fault_trace(inst, cfg, 1);
  EXPECT_EQ(trace.size(), 2u);
  for (const FaultEvent& e : trace.events) {
    EXPECT_EQ(e.kind, FaultKind::kSiteDown);
  }
}

TEST(FaultGen, TraceRoundTripsThroughText) {
  const Instance inst = medium_instance(3);
  FaultScenarioConfig cfg;
  cfg.site_crashes = 2;
  cfg.link_failures = 1;
  cfg.capacity_losses = 1;
  const FaultTrace trace = generate_fault_trace(inst, cfg, 7);
  std::ostringstream os;
  write_fault_trace(os, trace);
  std::istringstream is(os.str());
  const FaultTrace back = read_fault_trace(is, inst);
  EXPECT_TRUE(same_trace(trace, back));
}

TEST(FaultGen, ReadValidatesAgainstTheInstance) {
  const Instance inst = medium_instance(3);
  std::istringstream bad_site("1.0 site_down 9999 -1 0\n");
  EXPECT_THROW(read_fault_trace(bad_site, inst), std::invalid_argument);
  std::istringstream bad_kind("1.0 meteor_strike 0 -1 0\n");
  EXPECT_THROW(read_fault_trace(bad_kind, inst), std::runtime_error);
  std::istringstream out_of_order("2.0 site_down 0 -1 0\n1.0 site_up 0 -1 0\n");
  EXPECT_THROW(read_fault_trace(out_of_order, inst), std::invalid_argument);
}

// Ids wider than 32 bits must fail with the offending line number instead
// of wrapping onto a valid site or edge.
TEST(FaultGen, ReadRejectsIdsThatDoNotFit) {
  const Instance inst = medium_instance(3);
  const std::pair<std::string, std::string> cases[] = {
      {"1.0 site_down 4294967299 -1 0\n", "line 1:"},  // site 3
      {"0.5 site_down 0 -1 0\n1.0 link_down -1 4294967296 0\n",
       "line 2:"},  // edge 0
  };
  for (const auto& [text, line] : cases) {
    std::istringstream is(text);
    try {
      (void)read_fault_trace(is, inst);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  }
}

TEST(FaultGen, ConfigRoundTripsAndRejectsUnknownKeys) {
  FaultScenarioConfig cfg;
  cfg.horizon = 123.5;
  cfg.site_crashes = 4;
  cfg.link_failures = 2;
  cfg.capacity_losses = 3;
  cfg.mean_repair_time = 0.25;
  cfg.loss_fraction = {0.1, 0.9};
  cfg.cloudlets_only = false;
  std::ostringstream os;
  write_fault_config(os, cfg);
  std::istringstream is(os.str());
  const FaultScenarioConfig back = read_fault_config(is);
  EXPECT_DOUBLE_EQ(back.horizon, cfg.horizon);
  EXPECT_EQ(back.site_crashes, cfg.site_crashes);
  EXPECT_EQ(back.link_failures, cfg.link_failures);
  EXPECT_EQ(back.capacity_losses, cfg.capacity_losses);
  EXPECT_DOUBLE_EQ(back.mean_repair_time, cfg.mean_repair_time);
  EXPECT_DOUBLE_EQ(back.loss_fraction.lo, cfg.loss_fraction.lo);
  EXPECT_DOUBLE_EQ(back.loss_fraction.hi, cfg.loss_fraction.hi);
  EXPECT_FALSE(back.cloudlets_only);

  std::istringstream unknown("meteor_rate = 3\n");
  EXPECT_THROW(read_fault_config(unknown), std::runtime_error);

  // Every advertised key is readable and writable.
  for (const std::string& key : fault_config_keys()) {
    FaultScenarioConfig probe;
    set_fault_field(probe, key, get_fault_field(cfg, key));
  }
}

TEST(FaultGen, ConfigRejectsNonFiniteValuesAndInexactCounts) {
  auto error = [](const std::string& text) {
    std::istringstream is(text);
    try {
      (void)read_fault_config(is);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(error("horizon = 30\nsite_crashes = 1e30\n"),
            "fault config: line 2: site_crashes must be an integer in "
            "[0, 2^53]");
  EXPECT_EQ(error("horizon = nan\n"),
            "fault config: line 1: value 'nan' is not finite");
  EXPECT_EQ(error("# scenario\nmean_repair_time = -inf\n"),
            "fault config: line 2: value '-inf' is not finite");
  std::istringstream ok("horizon = 30\nsite_crashes = 3\n");
  EXPECT_EQ(read_fault_config(ok).site_crashes, 3u);
}

TEST(FaultGen, CloudletsOnlySparesDataCenters) {
  const Instance inst = medium_instance(3);
  FaultScenarioConfig cfg;
  cfg.site_crashes = 10;  // more than the cloudlet population? capped
  cfg.cloudlets_only = true;
  const FaultTrace trace = generate_fault_trace(inst, cfg, 5);
  for (const FaultEvent& e : trace.events) {
    if (e.kind == FaultKind::kSiteDown) {
      EXPECT_FALSE(inst.site(e.site).is_data_center());
    }
  }
}

}  // namespace
}  // namespace edgerep
