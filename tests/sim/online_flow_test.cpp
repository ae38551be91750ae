// The flow-backend contract of run_online (cfg.network == kFlow):
//
//  * Contention-free limit: with oversubscription == 0 every link is
//    effectively infinite, so each flow runs at exactly its unit rate cap
//    and completes at the table-priced instant — the OnlineResult must be
//    BIT-identical to the kTable backend, with and without fault traces.
//  * Contended regime: results and the predicted-vs-actual gap stats match
//    their goldens, and the gap stats report the stretch.
//  * Capacity-loss faults mid-flow throttle the affected links and stretch
//    live completions past their prediction.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "helpers/fixtures.h"
#include "helpers/golden.h"
#include "sim/online.h"
#include "workload/arrival_gen.h"
#include "workload/fault_gen.h"

namespace edgerep {
namespace {

using testing::medium_instance;
using testing::TinyFixture;

#define EXPECT_BITEQ(x, y)                                   \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x),                 \
            std::bit_cast<std::uint64_t>(y))                 \
      << #x " differs: " << (x) << " vs " << (y)

FaultTrace stress_trace(const Instance& inst, std::uint64_t seed) {
  FaultScenarioConfig fc;
  fc.horizon = 40.0;
  fc.site_crashes = 2;
  fc.link_failures = 2;
  fc.capacity_losses = 2;
  fc.mean_repair_time = 8.0;
  fc.cloudlets_only = false;
  return generate_fault_trace(inst, fc, seed);
}

/// The tentpole acceptance check: run the delay table and the flow backend
/// at oversubscription 0 (infinite capacity) and demand a bit-identical
/// result that matches the golden.  Also pins the gap stats a
/// contention-free run must report: every flow at its predicted instant,
/// zero stretch.
void expect_contention_free_identity(const std::string& golden,
                                     const Instance& inst, OnlineConfig cfg) {
  cfg.oversubscription = 0.0;
  cfg.network = OnlineNetwork::kTable;
  const OnlineResult table = run_online(inst, cfg);
  cfg.network = OnlineNetwork::kFlow;
  const OnlineResult flow = run_online(inst, cfg);
  EXPECT_EQ(online_result_hash(table), online_result_hash(flow));
  testing::expect_golden(golden, testing::online_fp(flow));

  // Table runs never touch the flow engine.
  EXPECT_EQ(table.flow_gap.flows_routed, 0u);
  EXPECT_EQ(table.flow_gap.queries_compared, 0u);
  // Contention-free flows hit their prediction exactly.
  if (flow.admitted_queries > 0) {
    EXPECT_GT(flow.flow_gap.flows_routed, 0u);
    EXPECT_GT(flow.flow_gap.queries_compared, 0u);
  }
  EXPECT_EQ(flow.flow_gap.predicted_hits, flow.flow_gap.actual_hits);
  EXPECT_EQ(flow.flow_gap.gap_breaches, 0u);
  EXPECT_BITEQ(flow.flow_gap.max_stretch, 0.0);
  EXPECT_BITEQ(flow.flow_gap.mean_stretch, 0.0);
}

class OnlineFlowIdentity : public ::testing::TestWithParam<int> {};

TEST_P(OnlineFlowIdentity, ContentionFreeMatchesTableFaultFree) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Instance inst = medium_instance(seed, /*f_max=*/4);
  OnlineConfig cfg;
  cfg.seed = 0xF10 + seed;
  expect_contention_free_identity(
      "flow/ContentionFreeFaultFree/" + std::to_string(GetParam()), inst, cfg);
}

TEST_P(OnlineFlowIdentity, ContentionFreeMatchesTableWithFaults) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Instance inst = medium_instance(seed, /*f_max=*/4);
  OnlineConfig cfg;
  cfg.arrival_rate = 4.0;  // dense horizon: faults land on live flows
  cfg.faults = stress_trace(inst, seed * 271 + 9);
  expect_contention_free_identity(
      "flow/ContentionFreeWithFaults/" + std::to_string(GetParam()), inst,
      cfg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineFlowIdentity,
                         ::testing::Values(1, 2, 3, 4));

// Two sites with a hopeless local option: the lone query must evaluate at
// the remote data center, so its transfer routes as a real flow over the
// cl–sw–dc path.  A single flow never shares a link and its unit rate cap
// binds below every link capacity, so even at real capacities
// (oversubscription 1) the flow backend must reproduce the table result
// exactly.
Instance remote_tiny_instance() {
  Graph g;
  const NodeId cl = g.add_node(NodeRole::kCloudlet);
  const NodeId sw = g.add_node(NodeRole::kSwitch);
  const NodeId dc = g.add_node(NodeRole::kDataCenter);
  g.add_edge(cl, sw, 0.1);
  g.add_edge(sw, dc, 1.0);
  Instance inst(std::move(g));
  inst.add_site(cl, 10.0, 5.0);  // 4 GB × 5 s/GB: local misses any deadline
  const SiteId s_dc = inst.add_site(dc, 100.0, 0.05);
  const DatasetId d0 = inst.add_dataset(4.0, s_dc);
  inst.add_query(/*home=*/0, 1.0, /*deadline=*/3.0, {{d0, 0.5}});
  inst.set_max_replicas(2);
  inst.finalize();
  return inst;
}

TEST(OnlineFlow, SingleFlowMatchesTableDelayAtRealCapacity) {
  const Instance inst = remote_tiny_instance();
  OnlineConfig cfg;
  cfg.oversubscription = 1.0;
  cfg.network = OnlineNetwork::kTable;
  const OnlineResult table = run_online(inst, cfg);
  cfg.network = OnlineNetwork::kFlow;
  const OnlineResult flow = run_online(inst, cfg);
  EXPECT_EQ(online_result_hash(table), online_result_hash(flow));
  testing::expect_golden("flow/SingleFlowAtRealCapacity",
                         testing::online_fp(flow));
  ASSERT_EQ(flow.admitted_queries, 1u);
  EXPECT_GT(flow.flow_gap.flows_routed, 0u);
  EXPECT_BITEQ(flow.flow_gap.max_stretch, 0.0);
}

// Scarce links (oversubscription 64 shrinks every capacity below the unit
// rate cap) force concurrent flows to stretch past their prediction.  The
// result and its gap rollup match their golden, and the rollup must show
// the contention: positive stretch and no more actual than predicted hits
// (a flow can only finish at or after its table-priced instant).
TEST(OnlineFlow, OversubscriptionStretchesAndKernelsAgree) {
  const Instance inst = medium_instance(3, /*f_max=*/4);
  OnlineConfig cfg;
  cfg.arrival_rate = 4.0;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 64.0;

  const OnlineResult flow = run_online(inst, cfg);
  testing::expect_golden("flow/Oversub64", testing::flow_fp(flow));

  EXPECT_GT(flow.flow_gap.flows_routed, 0u);
  EXPECT_GT(flow.flow_gap.rate_changes, flow.flow_gap.flows_routed)
      << "shared scarce links must trigger mid-flight re-fills";
  EXPECT_GT(flow.flow_gap.max_stretch, 0.0);
  EXPECT_GT(flow.flow_gap.mean_stretch, 0.0);
  EXPECT_LE(flow.flow_gap.actual_hits, flow.flow_gap.predicted_hits);
  EXPECT_EQ(flow.flow_gap.queries_compared, flow.slo.admitted_queries);

  // And the stretched run must genuinely differ from the table pricing.
  cfg.network = OnlineNetwork::kTable;
  const OnlineResult table = run_online(inst, cfg);
  EXPECT_NE(online_result_hash(table), online_result_hash(flow));
}

// A capacity-loss fault mid-flow throttles the struck site's links (gnp
// edges carry unit capacity, the loss scales them to 0.1), so live flows
// through it stretch past their prediction; the restore lets later flows
// run clean again.  Arrivals are sparse enough that the unfaulted run has
// no contention at all — the stretch is attributable to the fault alone.
TEST(OnlineFlow, CapacityLossMidFlowStretchesCompletions) {
  StreamWorkloadConfig wc;
  wc.sites = 4;
  wc.queries = 120;
  wc.datasets = 8;
  wc.proc_delay = {0.1, 0.3};
  const Instance inst = stream_instance(wc, 0xf10a);
  OnlineConfig cfg;
  cfg.arrival_rate = 1.5;
  cfg.seed = 0x10ad;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 1.0;

  const OnlineResult clean = run_online(inst, cfg);

  FaultTrace trace;  // events must be time-sorted: losses first, then
                     // restores long after the arrival window
  for (SiteId s = 0; s < 4; ++s) {
    FaultEvent e;
    e.time = 2.0 + 0.1 * s;
    e.kind = FaultKind::kCapacityLoss;
    e.site = s;
    e.fraction = 0.9;
    trace.events.push_back(e);
  }
  for (SiteId s = 0; s < 4; ++s) {
    FaultEvent r;
    r.time = 200.0 + 0.1 * s;
    r.kind = FaultKind::kCapacityRestore;
    r.site = s;
    trace.events.push_back(r);
  }
  validate_fault_trace(inst, trace);
  cfg.faults = trace;

  const OnlineResult faulted = run_online(inst, cfg);
  testing::expect_golden("flow/CapacityLossMidFlow", testing::flow_fp(faulted));

  EXPECT_GT(faulted.flow_gap.max_stretch, clean.flow_gap.max_stretch);
  EXPECT_GT(faulted.flow_gap.max_stretch, 0.0);
}

// A line of sites cl – mid – dc, one per node.  The lone query lives at cl
// and its dataset only at dc (K = 1), so its transfer crosses both links,
// and mid's node is an endpoint of each.
Instance line_instance() {
  Graph g;
  const NodeId cl = g.add_node(NodeRole::kCloudlet);
  const NodeId mid = g.add_node(NodeRole::kCloudlet);
  const NodeId dc = g.add_node(NodeRole::kDataCenter);
  g.add_edge(cl, mid, 0.5);
  g.add_edge(mid, dc, 0.5);
  Instance inst(std::move(g));
  inst.add_site(cl, 10.0, 0.05);
  inst.add_site(mid, 10.0, 0.05);
  const SiteId s_dc = inst.add_site(dc, 100.0, 0.05);
  const DatasetId d0 = inst.add_dataset(4.0, s_dc);
  inst.add_query(/*home=*/0, 1.0, /*deadline=*/10.0, {{d0, 0.5}});
  inst.set_max_replicas(1);
  inst.finalize();
  return inst;
}

FaultEvent site_fault(FaultKind kind, SiteId site, double fraction = 0.0) {
  FaultEvent e;
  e.kind = kind;
  e.site = site;
  e.fraction = fraction;
  return e;
}

// Link capacities follow base × max(min over the endpoint sites of (1 −
// lost fraction), 1e-6); a crash does not enter.  A capacity loss of half
// on the crashed mid site leaves both of its links at half of base (4 at
// oversubscription 0.25), above the transfer's unit rate cap, so the flow
// runs exactly at its priced delay.  A rule that read the crash as scale 0
// throttles them to 1e-6 of base instead.
TEST(OnlineFlow, CapacityLossOnACrashedSiteScalesLinksByTheLossAlone) {
  const Instance inst = line_instance();
  OnlineConfig cfg;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 0.25;
  cfg.faults.events = {site_fault(FaultKind::kSiteDown, 1),
                       site_fault(FaultKind::kCapacityLoss, 1, 0.5)};
  const OnlineResult flow = run_online(inst, cfg);
  ASSERT_EQ(flow.admitted_queries, 1u);
  EXPECT_EQ(flow.flow_gap.flows_routed, 1u);
  EXPECT_EQ(flow.flow_gap.gap_breaches, 0u);
  EXPECT_BITEQ(flow.flow_gap.max_stretch, 0.0);
}

// Both endpoint sites of the cl–mid link lose 90%, then mid is restored.
// The link stays at a tenth of base (0.1 at oversubscription 1) while cl
// is degraded, so the transfer, priced at unit rate, runs at 0.1 and takes
// ten times its priced delay (mid–dc is back at full capacity).  A rule
// that took the scale of the endpoint updated last would return cl–mid to
// full capacity on mid's restore.
TEST(OnlineFlow, LinkBetweenDegradedSitesTakesTheLowerScale) {
  const Instance inst = line_instance();
  OnlineConfig cfg;
  cfg.oversubscription = 1.0;
  cfg.faults.events = {site_fault(FaultKind::kCapacityLoss, 0, 0.9),
                       site_fault(FaultKind::kCapacityLoss, 1, 0.9),
                       site_fault(FaultKind::kCapacityRestore, 1)};
  cfg.network = OnlineNetwork::kTable;
  const OnlineResult table = run_online(inst, cfg);
  ASSERT_EQ(table.admitted_queries, 1u);
  const double priced =
      table.outcomes[0].completion_time - table.outcomes[0].arrival_time;
  cfg.network = OnlineNetwork::kFlow;
  const OnlineResult flow = run_online(inst, cfg);
  ASSERT_EQ(flow.admitted_queries, 1u);
  EXPECT_EQ(flow.flow_gap.flows_routed, 1u);
  EXPECT_NEAR(flow.flow_gap.max_stretch, 9.0 * priced, 1e-9 * priced);
}

TEST(OnlineFlow, RejectsBadOversubscription) {
  const Instance inst = TinyFixture::make();
  OnlineConfig cfg;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = -1.0;
  EXPECT_THROW(run_online(inst, cfg), std::invalid_argument);
  cfg.oversubscription = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(run_online(inst, cfg), std::invalid_argument);
  cfg.oversubscription = std::numeric_limits<double>::infinity();
  EXPECT_THROW(run_online(inst, cfg), std::invalid_argument);
}

// Repeating a flow run must reproduce the result and its hash exactly —
// the property the CI nightly smoke asserts across two CLI invocations.
TEST(OnlineFlow, FlowRunIsDeterministic) {
  const Instance inst = medium_instance(17, /*f_max=*/4);
  OnlineConfig cfg;
  cfg.arrival_rate = 4.0;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 8.0;
  cfg.faults = stress_trace(inst, 404);
  const OnlineResult a = run_online(inst, cfg);
  const OnlineResult b = run_online(inst, cfg);
  EXPECT_EQ(online_result_hash(a), online_result_hash(b));
  EXPECT_EQ(a.flow_gap.rate_changes, b.flow_gap.rate_changes);
}

}  // namespace
}  // namespace edgerep
