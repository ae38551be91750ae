// The determinism contract of run_online: for a fixed (instance, config,
// fault trace) the result must match its golden online_result_hash (every
// outcome double, every replica list, every SLO percentile) in
// tests/golden/online_hashes.txt.  Covers instances, arrival models, fault
// scenarios, proactive seeding, and the reactive/repair toggles.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/appro.h"
#include "helpers/fixtures.h"
#include "helpers/golden.h"
#include "sim/online.h"
#include "workload/arrival_gen.h"
#include "workload/fault_gen.h"

namespace edgerep {
namespace {

using testing::medium_instance;

/// Run `cfg` and compare its result hash with the running test's golden,
/// `equiv/<test>[/<seed>]`.
void expect_golden_run(const Instance& inst, const OnlineConfig& cfg,
                       const ReplicaPlan* plan = nullptr) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info->name();
  name = "equiv/" + name.substr(0, name.find('/'));
  if (info->value_param() != nullptr) {
    name += std::string("/") + info->value_param();
  }
  testing::expect_golden(name,
                         testing::online_fp(run_online(inst, cfg, plan)));
}

FaultTrace stress_trace(const Instance& inst, std::uint64_t seed) {
  FaultScenarioConfig fc;
  fc.horizon = 40.0;
  fc.site_crashes = 2;
  fc.link_failures = 2;
  fc.capacity_losses = 2;
  fc.mean_repair_time = 8.0;
  fc.cloudlets_only = false;  // let data centers crash too
  return generate_fault_trace(inst, fc, seed);
}

class OnlineKernelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(OnlineKernelEquivalence, FaultFreePoisson) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Instance inst = medium_instance(seed, /*f_max=*/4);
  OnlineConfig cfg;
  cfg.seed = 0xBEEF + seed;
  expect_golden_run(inst, cfg);
}

TEST_P(OnlineKernelEquivalence, FaultsWithRepair) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Instance inst = medium_instance(seed, /*f_max=*/4);
  OnlineConfig cfg;
  cfg.arrival_rate = 4.0;  // dense horizon: faults land mid-flight
  cfg.faults = stress_trace(inst, seed * 977 + 5);
  expect_golden_run(inst, cfg);
}

TEST_P(OnlineKernelEquivalence, FaultsWithoutRepair) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Instance inst = medium_instance(seed, /*f_max=*/3);
  OnlineConfig cfg;
  cfg.arrival_rate = 4.0;
  cfg.repair_on_failure = false;
  cfg.faults = stress_trace(inst, seed * 31 + 1);
  expect_golden_run(inst, cfg);
}

TEST_P(OnlineKernelEquivalence, UniformArrivalsNoReactiveReplicas) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Instance inst = medium_instance(seed, /*f_max=*/3);
  OnlineConfig cfg;
  cfg.arrivals = OnlineConfig::Arrivals::kUniform;
  cfg.arrival_rate = 3.0;
  cfg.reactive_replicas = false;
  cfg.faults = stress_trace(inst, seed + 404);
  expect_golden_run(inst, cfg);
}

TEST_P(OnlineKernelEquivalence, ProactiveSeedWithFaults) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Instance inst = medium_instance(seed, /*f_max=*/4);
  const ApproResult offline = appro_g(inst);
  OnlineConfig cfg;
  cfg.arrival_rate = 4.0;
  cfg.faults = stress_trace(inst, seed * 13 + 7);
  expect_golden_run(inst, cfg, &offline.plan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineKernelEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// run_online compacts a site's handle list once it holds > 64 entries
// with more stale than live — a threshold the medium instances above never
// cross.  Drive heavy churn through a handful of sites (hundreds of
// launches and completions each), then strike them with repeated capacity
// losses so the shed path runs while relocations re-seat onto (and compact)
// the very lists being walked.  Guards the compaction × capacity-loss
// interaction the randomized suite cannot reach.
TEST(OnlineKernelEquivalenceEdge, CompactionChurnWithCapacityLoss) {
  StreamWorkloadConfig wc;
  wc.sites = 4;
  wc.queries = 3000;
  wc.datasets = 8;
  wc.proc_delay = {0.1, 0.3};  // seconds-long flights: deep per-site lists
  const Instance inst = stream_instance(wc, 0xc0de);
  OnlineConfig cfg;
  cfg.arrival_rate = 150.0;
  cfg.seed = 0xfeed;
  FaultTrace trace;
  auto loss = [&trace](double t, SiteId s, double frac) {
    FaultEvent e;
    e.time = t;
    e.kind = FaultKind::kCapacityLoss;
    e.site = s;
    e.fraction = frac;
    trace.events.push_back(e);
  };
  auto restore = [&trace](double t, SiteId s) {
    FaultEvent e;
    e.time = t;
    e.kind = FaultKind::kCapacityRestore;
    e.site = s;
    trace.events.push_back(e);
  };
  // Four loss/restore rounds across every site: each round sheds into an
  // already-degraded neighborhood, so displaced flights re-seat wherever
  // fill is lowest — including the struck site itself.
  for (int round = 0; round < 4; ++round) {
    const double base = 4.0 + 4.0 * round;
    for (SiteId s = 0; s < 4; ++s) loss(base + 0.1 * s, s, 0.75);
    for (SiteId s = 0; s < 4; ++s) restore(base + 2.0 + 0.1 * s, s);
  }
  validate_fault_trace(inst, trace);
  cfg.faults = trace;
  expect_golden_run(inst, cfg);
}

// The admission workload's shape at 1000 sites: deadlines tight enough
// that most sites miss them, K = 32 spent on the hot datasets of a
// Zipf(1) population, capacity that binds at the busiest sites, and
// crashes, link failures and capacity losses with repair.  Admission here
// runs both the walk over a dataset's replica sites (K spent) and the
// deadline-miss path of the search over every site (K left).
TEST(OnlineKernelEquivalenceEdge, TightDeadlinesBindingK) {
  StreamWorkloadConfig wc;
  wc.sites = 1000;
  wc.queries = 20'000;
  wc.datasets = 256;
  wc.max_demands = 3;
  wc.max_replicas = 32;
  wc.zipf_exponent = 1.0;
  wc.deadline_per_gb = {0.03, 0.06};
  wc.selectivity = {0.4, 0.8};
  wc.proc_delay = {0.005, 0.02};
  wc.volume = {3.0, 4.0};
  wc.capacity = {4.0, 10.0};
  const Instance inst = stream_instance(wc, 0x71d);
  OnlineConfig cfg;
  cfg.arrival_rate = 10'000.0;
  cfg.seed = 0x71d;
  FaultScenarioConfig fc;
  fc.horizon = 1.6;  // 0.8 of the arrival horizon
  fc.site_crashes = 8;
  fc.link_failures = 4;
  fc.capacity_losses = 8;
  fc.mean_repair_time = 0.2;
  fc.cloudlets_only = false;
  cfg.faults = generate_fault_trace(inst, fc, 0x71d5);
  expect_golden_run(inst, cfg);
}

TEST(OnlineKernelEquivalenceEdge, TypedKernelIsDeterministic) {
  const Instance inst = medium_instance(21, /*f_max=*/4);
  OnlineConfig cfg;
  cfg.faults = stress_trace(inst, 99);
  const std::uint64_t a = online_result_hash(run_online(inst, cfg));
  const std::uint64_t b = online_result_hash(run_online(inst, cfg));
  EXPECT_EQ(a, b);
}

TEST(OnlineKernelEquivalenceEdge, HashDetectsOutcomeDifferences) {
  const Instance inst = medium_instance(22, /*f_max=*/3);
  OnlineResult r = run_online(inst);
  const std::uint64_t before = online_result_hash(r);
  r.outcomes.front().completion_time += 1e-12;  // one ulp-scale nudge
  EXPECT_NE(before, online_result_hash(r));
}

TEST(OnlineKernelEquivalenceEdge, KernelStatsExcludedFromHash) {
  const Instance inst = medium_instance(23, /*f_max=*/3);
  OnlineResult r = run_online(inst);
  const std::uint64_t before = online_result_hash(r);
  r.kernel_stats.events_processed += 1000;
  r.kernel_stats.peak_pending_events += 7;
  r.kernel_stats.sites_scored += 11;
  r.kernel_stats.deadline_tests += 13;
  EXPECT_EQ(before, online_result_hash(r));
}

}  // namespace
}  // namespace edgerep
