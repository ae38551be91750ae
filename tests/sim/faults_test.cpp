#include "sim/faults.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "cloud/delay.h"
#include "helpers/fixtures.h"
#include "net/shortest_path.h"
#include "util/rng.h"

namespace edgerep {
namespace {

using testing::TinyFixture;

FaultEvent site_down(SiteId s, double t = 0.0) {
  return {t, FaultKind::kSiteDown, s, kInvalidEdge, 0.0};
}

FaultEvent site_up(SiteId s, double t = 0.0) {
  return {t, FaultKind::kSiteUp, s, kInvalidEdge, 0.0};
}

TEST(FaultTrace, ValidationRejectsBadEvents) {
  const Instance inst = TinyFixture::make();
  FaultTrace trace;
  trace.events.push_back(site_down(99));
  EXPECT_THROW(validate_fault_trace(inst, trace), std::invalid_argument);

  trace.events.clear();
  trace.events.push_back({5.0, FaultKind::kLinkDown, kInvalidSite, 42, 0.0});
  EXPECT_THROW(validate_fault_trace(inst, trace), std::invalid_argument);

  trace.events.clear();
  trace.events.push_back({1.0, FaultKind::kCapacityLoss, 0, kInvalidEdge, 1.5});
  EXPECT_THROW(validate_fault_trace(inst, trace), std::invalid_argument);

  // Times must be non-decreasing.
  trace.events.clear();
  trace.events.push_back(site_down(0, 2.0));
  trace.events.push_back(site_up(0, 1.0));
  EXPECT_THROW(validate_fault_trace(inst, trace), std::invalid_argument);

  trace.events.clear();
  trace.events.push_back(site_down(0, 1.0));
  trace.events.push_back(site_up(0, 2.0));
  EXPECT_NO_THROW(validate_fault_trace(inst, trace));
}

TEST(FaultState, SiteCrashAndRecovery) {
  const Instance inst = TinyFixture::make();
  FaultState fs(inst);
  EXPECT_TRUE(fs.site_up(0));
  EXPECT_DOUBLE_EQ(fs.available(0), inst.site(0).available);
  EXPECT_FALSE(fs.degraded());

  fs.apply(site_down(0));
  EXPECT_FALSE(fs.site_up(0));
  EXPECT_DOUBLE_EQ(fs.available(0), 0.0);
  EXPECT_DOUBLE_EQ(fs.capacity_scale(0), 0.0);
  EXPECT_EQ(fs.sites_down(), 1u);
  EXPECT_TRUE(fs.degraded());

  fs.apply(site_down(0));  // idempotent
  EXPECT_EQ(fs.sites_down(), 1u);

  fs.apply(site_up(0, 1.0));
  EXPECT_TRUE(fs.site_up(0));
  EXPECT_DOUBLE_EQ(fs.available(0), inst.site(0).available);
  EXPECT_EQ(fs.sites_down(), 0u);
  EXPECT_FALSE(fs.degraded());
  EXPECT_EQ(fs.events_applied(), 3u);
}

TEST(FaultState, CapacityLossScalesAvailability) {
  const Instance inst = TinyFixture::make();
  FaultState fs(inst);
  fs.apply({0.0, FaultKind::kCapacityLoss, 1, kInvalidEdge, 0.25});
  EXPECT_TRUE(fs.site_up(1));
  EXPECT_DOUBLE_EQ(fs.capacity_scale(1), 0.75);
  EXPECT_DOUBLE_EQ(fs.available(1), 0.75 * inst.site(1).available);
  EXPECT_TRUE(fs.degraded());

  // A later loss replaces (not stacks with) the earlier fraction.
  fs.apply({1.0, FaultKind::kCapacityLoss, 1, kInvalidEdge, 0.5});
  EXPECT_DOUBLE_EQ(fs.capacity_scale(1), 0.5);

  fs.apply({2.0, FaultKind::kCapacityRestore, 1, kInvalidEdge, 0.0});
  EXPECT_DOUBLE_EQ(fs.available(1), inst.site(1).available);
  EXPECT_FALSE(fs.degraded());
}

TEST(FaultState, EffectiveDelaysMatchFaultFreePrecompute) {
  const Instance inst = TinyFixture::make(/*deadline=*/3.0);
  const Query& q = inst.query(0);
  const DatasetDemand& dd = q.demands[0];
  FaultState fs(inst);
  for (SiteId s = 0; s < 2; ++s) {
    EXPECT_DOUBLE_EQ(fs.path_delay(0, s), inst.path_delay(0, s));
    EXPECT_DOUBLE_EQ(fs.evaluation_delay(q, dd, s),
                     evaluation_delay(inst, q, dd, s));
    EXPECT_EQ(fs.deadline_ok(q, dd, s), deadline_ok(inst, q, dd, s));
  }
}

TEST(FaultState, LinkDownLengthensOrDisconnectsPaths) {
  // TinyFixture topology: cl --e0-- sw --e1-- dc.  Cutting e1 disconnects
  // the two sites; restoring it brings the delay back to the precompute.
  const Instance inst = TinyFixture::make(/*deadline=*/3.0);
  const Query& q = inst.query(0);
  const DatasetDemand& dd = q.demands[0];
  FaultState fs(inst);
  const double base = fs.path_delay(0, 1);

  fs.apply({0.0, FaultKind::kLinkDown, kInvalidSite, 1, 0.0});
  EXPECT_TRUE(fs.any_link_down());
  EXPECT_FALSE(fs.edge_up(1));
  EXPECT_GT(fs.path_delay(0, 1), base);  // disconnected: +inf
  // Evaluation at the remote DC (site 1) now misses any finite deadline;
  // local evaluation at the cloudlet is unaffected.
  EXPECT_FALSE(fs.deadline_ok(q, dd, 1));
  EXPECT_DOUBLE_EQ(fs.evaluation_delay(q, dd, 0),
                   evaluation_delay(inst, q, dd, 0));

  fs.apply({1.0, FaultKind::kLinkUp, kInvalidSite, 1, 0.0});
  EXPECT_FALSE(fs.any_link_down());
  EXPECT_DOUBLE_EQ(fs.path_delay(0, 1), base);
  EXPECT_EQ(fs.links_down(), 0u);
}

// Two random halves joined by two bridges (cutting both disconnects them),
// with parallel and zero-delay edges; a site on every even node.  96 nodes,
// so the overlay's rows fill on the pool.
Instance bridged_instance(std::uint64_t seed, EdgeId& bridge_a,
                          EdgeId& bridge_b) {
  constexpr NodeId kHalf = 48;
  Rng rng(seed);
  Graph g(2 * kHalf);
  auto delay = [&rng] {
    return rng.bernoulli(0.15) ? 0.0 : rng.uniform(0.05, 2.0);
  };
  for (const NodeId base : {NodeId{0}, kHalf}) {
    for (NodeId v = 1; v < kHalf; ++v) {  // a random spanning tree
      g.add_edge(base + static_cast<NodeId>(rng.uniform_u64(0, v - 1)),
                 base + v, delay());
    }
    for (int chord = 0; chord < 40; ++chord) {
      const auto u = static_cast<NodeId>(rng.uniform_u64(0, kHalf - 1));
      const auto v = static_cast<NodeId>(rng.uniform_u64(0, kHalf - 1));
      if (u != v) g.add_edge(base + u, base + v, delay());
    }
  }
  const std::size_t m = g.num_edges();
  for (EdgeId e = 0; e < m; e += 4) {  // parallel edges, some equal
    const Edge edge = g.edge(e);
    g.add_edge(edge.u, edge.v, rng.bernoulli(0.5) ? edge.delay : delay());
  }
  bridge_a = g.add_edge(3, kHalf + 5, delay());
  bridge_b = g.add_edge(kHalf - 2, 2 * kHalf - 1, delay());
  Instance inst(std::move(g));
  for (NodeId v = 0; v < 2 * kHalf; v += 2) inst.add_site(v, 10.0, 0.1);
  const DatasetId d = inst.add_dataset(1.0, 0);
  inst.add_query(1, 1.0, 5.0, {{d, 0.5}});
  inst.finalize();
  return inst;
}

std::vector<NodeId> site_nodes(const Instance& inst) {
  std::vector<NodeId> nodes;
  for (const Site& s : inst.sites()) nodes.push_back(s.node);
  return nodes;
}

/// (site, site) pairs whose overlay delay differs in any bit from `want`'s
/// row of the source site at the target site's node.
std::size_t overlay_mismatches(const FaultState& fs, const DelayTable& want) {
  const Instance& inst = fs.instance();
  std::size_t bad = 0;
  for (SiteId a = 0; a < inst.sites().size(); ++a) {
    for (SiteId b = 0; b < inst.sites().size(); ++b) {
      bad += std::bit_cast<std::uint64_t>(fs.path_delay(a, b)) !=
             std::bit_cast<std::uint64_t>(want.at(a, inst.site(b).node));
    }
  }
  return bad;
}

/// The fault-free table of a copy of the graph built without the edges
/// `fs` holds down.
DelayTable table_without_down_edges(const FaultState& fs) {
  const Graph& g = fs.instance().graph();
  Graph pruned(g.num_nodes());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    if (fs.edge_up(e)) pruned.add_edge(edge.u, edge.v, edge.delay);
  }
  return DelayTable::compute(pruned, site_nodes(fs.instance()),
                             /*parallel=*/false);
}

TEST(FaultState, OverlayMatchesGraphWithoutDownedLinks) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    EdgeId bridge_a = kInvalidEdge;
    EdgeId bridge_b = kInvalidEdge;
    const Instance inst = bridged_instance(seed, bridge_a, bridge_b);
    const std::size_t m = inst.graph().num_edges();
    Rng rng(seed * 7919);
    FaultState fs(inst);
    auto link = [&fs](FaultKind kind, EdgeId e) {
      fs.apply({0.0, kind, kInvalidSite, e, 0.0});
    };
    for (int round = 0; round < 4; ++round) {
      for (EdgeId e = 0; e < m; ++e) {
        if (rng.bernoulli(0.12)) link(FaultKind::kLinkDown, e);
      }
      if (round == 1) {  // the cut: the halves disconnect
        link(FaultKind::kLinkDown, bridge_a);
        link(FaultKind::kLinkDown, bridge_b);
        EXPECT_EQ(fs.path_delay(0, 24), kInfDelay);  // nodes 0 and 48
      }
      ASSERT_TRUE(fs.any_link_down());
      EXPECT_EQ(overlay_mismatches(fs, table_without_down_edges(fs)), 0u);
      for (EdgeId e = 0; e < m; ++e) {
        if (!fs.edge_up(e) && rng.bernoulli(0.5)) link(FaultKind::kLinkUp, e);
      }
      if (fs.any_link_down()) {
        EXPECT_EQ(overlay_mismatches(fs, table_without_down_edges(fs)), 0u);
        // The overlay fills on the pool; a serial fill of the same mask
        // must agree with it.
        std::vector<char> up(m);
        for (EdgeId e = 0; e < m; ++e) up[e] = fs.edge_up(e) ? 1 : 0;
        EXPECT_EQ(overlay_mismatches(
                      fs, DelayTable::compute(inst.graph(), site_nodes(inst),
                                              /*parallel=*/false, up)),
                  0u);
      }
    }
    for (EdgeId e = 0; e < m; ++e) link(FaultKind::kLinkUp, e);
    ASSERT_FALSE(fs.any_link_down());
    EXPECT_EQ(overlay_mismatches(fs, inst.site_delays()), 0u);
    // With every link up the masked fill is the fault-free table itself.
    const DelayTable all_up = DelayTable::compute(
        inst.graph(), site_nodes(inst), /*parallel=*/true,
        std::vector<char>(m, 1));
    for (std::size_t r = 0; r < all_up.rows(); ++r) {
      EXPECT_EQ(std::memcmp(all_up.row(r).data(),
                            inst.site_delays().row(r).data(),
                            all_up.cols() * sizeof(double)),
                0);
    }
  }
}

TEST(FaultState, ApplyUntilFoldsPrefixInOrder) {
  const Instance inst = TinyFixture::make();
  FaultTrace trace;
  trace.events.push_back(site_down(0, 1.0));
  trace.events.push_back(site_up(0, 2.0));
  trace.events.push_back(site_down(1, 3.0));

  FaultState fs(inst);
  fs.apply_until(trace, 2.5);
  EXPECT_EQ(fs.events_applied(), 2u);
  EXPECT_TRUE(fs.site_up(0));
  EXPECT_TRUE(fs.site_up(1));

  FaultState all(inst);
  all.apply_until(trace, 100.0);
  EXPECT_EQ(all.events_applied(), 3u);
  EXPECT_FALSE(all.site_up(1));
}

}  // namespace
}  // namespace edgerep
