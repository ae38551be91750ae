#include "net/routes.h"

#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/shortest_path.h"
#include "net/topology.h"
#include "util/rng.h"

namespace edgerep {
namespace {

std::vector<NodeId> all_nodes(const Graph& g) {
  std::vector<NodeId> nodes(g.num_nodes());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

/// Nodes visited by walking `path` from `source`; each edge must touch the
/// node before it.
std::vector<NodeId> walk(const Graph& g, NodeId source,
                         const std::vector<EdgeId>& path) {
  std::vector<NodeId> nodes{source};
  for (const EdgeId e : path) {
    const Edge& edge = g.edge(e);
    EXPECT_TRUE(edge.u == nodes.back() || edge.v == nodes.back());
    nodes.push_back(edge.other(nodes.back()));
  }
  return nodes;
}

TEST(RouteTable, PrefersCheaperLongerPath) {
  Graph g(4);
  g.add_edge(0, 3, 10.0);  // direct but expensive
  const EdgeId a = g.add_edge(0, 1, 1.0);
  const EdgeId b = g.add_edge(1, 2, 1.0);
  const EdgeId c = g.add_edge(2, 3, 1.0);  // 3 hops, total 3
  const std::vector<NodeId> sources{0};
  auto routes = RouteTable::compute(g, sources);
  std::vector<EdgeId> path;
  ASSERT_TRUE(routes.edge_path(g, 0, 3, path));
  EXPECT_EQ(path, (std::vector<EdgeId>{a, b, c}));
  EXPECT_EQ(walk(g, 0, path), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(RouteTable, UnreachableTargetHasNoPath) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const std::vector<NodeId> sources{0};
  auto routes = RouteTable::compute(g, sources);
  std::vector<EdgeId> path{7};  // stale contents are cleared
  EXPECT_FALSE(routes.edge_path(g, 0, 2, path));
  EXPECT_TRUE(path.empty());
  // The source itself is reachable by the empty path.
  path.push_back(7);
  EXPECT_TRUE(routes.edge_path(g, 0, 0, path));
  EXPECT_TRUE(path.empty());
  EXPECT_THROW(routes.edge_path(g, 1, 0, path), std::out_of_range);
  EXPECT_THROW(routes.edge_path(g, 0, 3, path), std::out_of_range);
}

TEST(RouteTable, PathReconstructionIsConsistent) {
  // Every path leads from its source to its target, and its edge delays,
  // summed in travel order, are the DelayTable distance bit for bit.  That
  // holds too under an edge mask, which downs every fifth edge and every
  // other one of the cheaper twins added beside every seventh: the masked
  // paths use only edges that are up, and sum to the masked DelayTable.
  Rng rng(77);
  Graph g = gnp(40, 0.15, Range{0.1, 2.0}, rng);
  const std::size_t m = g.num_edges();
  for (EdgeId e = 0; e < m; e += 7) {
    const Edge edge = g.edge(e);
    g.add_edge(edge.u, edge.v, edge.delay / 2.0);  // a cheaper parallel edge
  }
  g.seal();
  std::vector<char> up(g.num_edges(), 1);
  for (EdgeId e = 0; e < m; e += 5) up[e] = 0;
  for (EdgeId e = m; e < g.num_edges(); e += 2) up[e] = 0;
  const std::vector<NodeId> sources{0, 13, 39};
  std::size_t downed_on_unmasked_paths = 0;
  for (const bool masked : {false, true}) {
    const std::span<const char> mask =
        masked ? std::span<const char>(up) : std::span<const char>();
    auto routes = RouteTable::compute(g, sources, mask);
    const auto delays = DelayTable::compute(g, sources, false, mask);
    std::vector<EdgeId> path;
    for (std::size_t r = 0; r < sources.size(); ++r) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_TRUE(routes.edge_path(g, r, v, path));
        EXPECT_EQ(walk(g, sources[r], path).back(), v);
        double sum = 0.0;
        for (const EdgeId e : path) {
          sum += g.edge(e).delay;
          if (!up[e]) {
            EXPECT_FALSE(masked) << "downed edge " << e << " on a route";
            ++downed_on_unmasked_paths;
          }
        }
        EXPECT_EQ(sum, delays.at(r, v))
            << (masked ? "masked " : "") << "row " << r << " target " << v;
      }
    }
  }
  EXPECT_GT(downed_on_unmasked_paths, 0u) << "the mask never bites";
}

TEST(RouteTable, CheapestParallelEdgeWins) {
  Graph g(3);
  g.add_edge(0, 1, 5.0);
  const EdgeId cheap = g.add_edge(0, 1, 2.0);
  g.add_edge(0, 1, 3.0);
  const EdgeId next = g.add_edge(1, 2, 1.0);
  const std::vector<NodeId> sources{0, 2};
  auto routes = RouteTable::compute(g, sources);
  std::vector<EdgeId> path;
  ASSERT_TRUE(routes.edge_path(g, 0, 2, path));
  EXPECT_EQ(path, (std::vector<EdgeId>{cheap, next}));
  ASSERT_TRUE(routes.edge_path(g, 1, 0, path));
  EXPECT_EQ(path, (std::vector<EdgeId>{next, cheap}));
}

TEST(RouteTable, FirstOfEqualParallelEdgesWins) {
  Graph g(2);
  g.add_edge(0, 1, 4.0);
  const EdgeId first = g.add_edge(0, 1, 1.5);
  g.add_edge(0, 1, 1.5);
  g.add_edge(0, 1, 1.5);
  const std::vector<NodeId> sources{0, 1};
  for (const bool sealed : {false, true}) {
    if (sealed) g.seal();
    auto routes = RouteTable::compute(g, sources);
    std::vector<EdgeId> path;
    ASSERT_TRUE(routes.edge_path(g, 0, 1, path));
    EXPECT_EQ(path, std::vector<EdgeId>{first});
    ASSERT_TRUE(routes.edge_path(g, 1, 0, path));
    EXPECT_EQ(path, std::vector<EdgeId>{first});
  }
}

TEST(RouteTable, PathsDoNotDependOnRowFillOrder) {
  // Rows fill on first use.  Filling them in ascending and in descending
  // order must give the same paths, and so must dropping the filled rows
  // for a mask and refilling them in the other order: a row is a function
  // of its source and the mask alone.
  Rng rng(79);
  Graph g = gnp(60, 0.08, Range{0.1, 1.0}, rng);
  const std::size_t m = g.num_edges();
  for (EdgeId e = 0; e < m; e += 5) {
    const Edge edge = g.edge(e);
    g.add_edge(edge.u, edge.v, rng.uniform(0.1, 1.0));  // a parallel edge
  }
  g.seal();
  std::vector<char> up(g.num_edges(), 1);
  for (EdgeId e = 0; e < g.num_edges(); e += 3) up[e] = 0;
  const auto sources = all_nodes(g);
  const std::size_t rows = sources.size();
  // Every (row, target) path of `t`, visiting rows in the given order.
  const auto paths = [&](RouteTable& t, bool descending) {
    std::vector<std::vector<EdgeId>> out(rows * g.num_nodes());
    for (std::size_t i = 0; i < rows; ++i) {
      const std::size_t r = descending ? rows - 1 - i : i;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        std::vector<EdgeId>& p = out[r * g.num_nodes() + v];
        if (!t.edge_path(g, r, v, p)) p.push_back(kInvalidEdge);
      }
    }
    return out;
  };
  auto ascending = RouteTable::compute(g, sources);
  auto descending = RouteTable::compute(g, sources);
  const auto unmasked = paths(ascending, false);
  EXPECT_EQ(unmasked, paths(descending, true));
  // The same tables after a mask change, refilled in the other order,
  // equal a table built under the mask.
  ascending.set_edge_mask(up);
  descending.set_edge_mask(up);
  auto fresh = RouteTable::compute(g, sources, up);
  const auto masked = paths(fresh, false);
  EXPECT_EQ(masked, paths(ascending, true));
  EXPECT_EQ(masked, paths(descending, false));
  EXPECT_NE(masked, unmasked) << "the mask never bites";
  // And back to every edge up.
  descending.set_edge_mask({});
  EXPECT_EQ(unmasked, paths(descending, true));
}

TEST(RouteTable, RejectsOutOfRangeSources) {
  const Graph g(3);
  const std::vector<NodeId> bad{0, 3};
  EXPECT_THROW(RouteTable::compute(g, bad), std::invalid_argument);
}

}  // namespace
}  // namespace edgerep
