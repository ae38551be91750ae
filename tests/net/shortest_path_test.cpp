#include "net/shortest_path.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/topology.h"
#include "util/rng.h"

namespace edgerep {
namespace {

Graph line_graph(std::size_t n, double step = 1.0) {
  Graph g(n);
  for (NodeId v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1, step);
  return g;
}

TEST(Dijkstra, LineGraphDistances) {
  const Graph g = line_graph(5, 2.0);
  const auto t = dijkstra(g, 0);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_DOUBLE_EQ(t.dist[v], 2.0 * v);
  }
}

TEST(Dijkstra, SourceDistanceZero) {
  const Graph g = line_graph(3);
  const auto t = dijkstra(g, 1);
  EXPECT_DOUBLE_EQ(t.dist[1], 0.0);
  EXPECT_EQ(t.parent[1], kInvalidNode);
}

TEST(Dijkstra, PrefersCheaperLongerPath) {
  Graph g(4);
  g.add_edge(0, 3, 10.0);       // direct but expensive
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);        // 3 hops, total 3
  const auto t = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(t.dist[3], 3.0);
  EXPECT_EQ(t.parent[3], 2u);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const auto t = dijkstra(g, 0);
  EXPECT_FALSE(t.reachable(2));
  EXPECT_EQ(t.dist[2], kInfDelay);
  EXPECT_EQ(t.parent[2], kInvalidNode);
}

TEST(Dijkstra, ZeroWeightEdges) {
  Graph g(3);
  g.add_edge(0, 1, 0.0);
  g.add_edge(1, 2, 0.0);
  const auto t = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(t.dist[2], 0.0);
}

TEST(Dijkstra, OutOfRangeSourceThrows) {
  const Graph g(2);
  EXPECT_THROW(dijkstra(g, 7), std::invalid_argument);
}

TEST(DelayMatrix, MatchesDijkstraRows) {
  Rng rng(78);
  const Graph g = gnp(30, 0.2, Range{0.1, 1.0}, rng);
  const auto m = DelayMatrix::compute(g, /*parallel=*/false);
  for (NodeId s : {NodeId{0}, NodeId{7}, NodeId{29}}) {
    const auto t = dijkstra(g, s);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_DOUBLE_EQ(m.at(s, v), t.dist[v]);
    }
  }
}

TEST(DelayMatrix, ParallelEqualsSerial) {
  Rng rng(79);
  const Graph g = gnp(80, 0.1, Range{0.1, 1.0}, rng);
  const auto serial = DelayMatrix::compute(g, false);
  const auto parallel = DelayMatrix::compute(g, true);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_DOUBLE_EQ(serial.at(u, v), parallel.at(u, v));
    }
  }
}

TEST(DelayMatrix, IsSymmetricOnUndirectedGraphs) {
  Rng rng(80);
  const Graph g = gnp(25, 0.2, Range{0.5, 1.5}, rng);
  const auto m = DelayMatrix::compute(g, false);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_NEAR(m.at(u, v), m.at(v, u), 1e-9);
    }
  }
}

TEST(DelayMatrix, TriangleInequality) {
  Rng rng(81);
  const Graph g = gnp(20, 0.3, Range{0.1, 1.0}, rng);
  const auto m = DelayMatrix::compute(g, false);
  for (NodeId a = 0; a < g.num_nodes(); ++a) {
    for (NodeId b = 0; b < g.num_nodes(); ++b) {
      for (NodeId c = 0; c < g.num_nodes(); ++c) {
        EXPECT_LE(m.at(a, c), m.at(a, b) + m.at(b, c) + 1e-9);
      }
    }
  }
}

TEST(BfsHops, CountsEdges) {
  const Graph g = line_graph(6);
  const auto hops = bfs_hops(g, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(hops[v], v);
}

TEST(HopDiameter, LineGraph) {
  EXPECT_EQ(hop_diameter(line_graph(6)), 5u);
}

TEST(HopDiameter, LargeGraphTakesParallelPath) {
  // n > 64 runs the per-source BFS fan-out on the thread pool; the result
  // must match the obvious sequential answer.
  EXPECT_EQ(hop_diameter(line_graph(100)), 99u);
}

TEST(HopDiameter, EmptyAndSingle) {
  EXPECT_EQ(hop_diameter(Graph{}), 0u);
  EXPECT_EQ(hop_diameter(Graph{1}), 0u);
}

}  // namespace
}  // namespace edgerep
