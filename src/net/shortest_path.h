// Minimum-delay paths.  The paper routes intermediate results from the
// evaluation node to the query's home node "via a shortest path whose
// transmission delay is the minimum one" (§3.2); dt(p_{v,h}) below is the
// summed per-unit-data delay along that path.
//
// The scale-out substrate is the `DelayTable`: the delay model only ever
// consumes minimum delays *from placement sites* to other sites' nodes, so
// the table stores one Dijkstra row per site (|V|·n entries) instead of the
// dense n×n matrix.  `DelayMatrix` is kept as the all-pairs oracle (and for
// diagnostics); `DijkstraWorkspace` is the one row engine, and
// `fill_shortest_path_rows` the one row fill behind DelayTable, DelayMatrix,
// RouteTable (net/routes.h) and `dijkstra()`.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "net/graph.h"

namespace edgerep {

inline constexpr double kInfDelay = std::numeric_limits<double>::infinity();

/// Single-source shortest path result.
struct ShortestPathTree {
  std::vector<double> dist;     ///< dist[v] = min total delay source→v (inf if unreachable)
  std::vector<NodeId> parent;   ///< predecessor on the shortest path (kInvalidNode at source/unreachable)

  [[nodiscard]] bool reachable(NodeId v) const {
    assert(v < dist.size());
    return dist[v] < kInfDelay;
  }
};

/// Reusable single-source Dijkstra engine.  The dist/parent/heap buffers
/// belong to the workspace, so repeated runs (one per table row) allocate
/// nothing; visited marks are generation-stamped, making the per-run reset
/// O(1) instead of an O(n) clear.  The heap is 4-ary (shallower than binary,
/// parent/child index math stays cheap) with lazy deletion and pops in the
/// strict (dist, node) total order of the binary-heap Dijkstra it replaced,
/// so distances, parents, and tie-breaks are bit-identical to it.
class DijkstraWorkspace {
 public:
  /// Minimum delays from `source` into out_dist (size g.num_nodes(),
  /// kInfDelay when unreachable).  When out_parent is non-empty it receives
  /// predecessor ids (kInvalidNode at the source and unreachable nodes);
  /// either output may be empty.  A non-empty `edge_up` (one entry per
  /// graph edge) removes the half-edges of every edge whose entry is 0.
  /// Walks the CSR arrays when the graph is sealed.
  void run(const Graph& g, NodeId source, std::span<double> out_dist,
           std::span<NodeId> out_parent = {},
           std::span<const char> edge_up = {});

 private:
  struct HeapItem {
    double dist = 0.0;
    NodeId node = kInvalidNode;
  };

  /// Strict (dist, node) lexicographic order — the min-heap order of
  /// (dist, node) pairs the replaced engine popped, so pop order (and hence
  /// tie-breaking) is unchanged.
  [[nodiscard]] static bool less(const HeapItem& a, const HeapItem& b) noexcept {
    return a.dist < b.dist || (a.dist == b.dist && a.node < b.node);
  }

  /// The search itself; the mask test is compiled in only when kMasked,
  /// so unmasked rows pay nothing for it.
  template <bool kMasked>
  void search(const Graph& g, NodeId source, const char* edge_up);
  void ensure_size(std::size_t n);
  void heap_push(HeapItem item);
  HeapItem heap_pop();

  std::vector<double> dist_;
  std::vector<NodeId> parent_;
  std::vector<std::uint32_t> stamp_;  ///< dist_/parent_[v] valid iff == generation_
  std::vector<HeapItem> heap_;
  std::uint32_t generation_ = 0;
};

/// The one row fill: row r is a Dijkstra from sources[r] on a thread-local
/// workspace, written to dist[r·n, (r+1)·n) and parent[r·n, (r+1)·n) where
/// n = g.num_nodes() (either output may be empty).  Rows are independent,
/// so with `parallel` and more than kParallelForThreshold rows or nodes they
/// fill on the global pool; no result depends on the thread count.
/// `edge_up` is DijkstraWorkspace::run's mask.  Throws
/// std::invalid_argument when a source is out of range.
void fill_shortest_path_rows(const Graph& g, std::span<const NodeId> sources,
                             bool parallel, std::span<double> dist,
                             std::span<NodeId> parent = {},
                             std::span<const char> edge_up = {});

/// Dijkstra with the workspace engine; O((V+E) log V).
ShortestPathTree dijkstra(const Graph& g, NodeId source);

/// Minimum delays from a fixed set of source nodes (one row per source) to
/// every node — |sources|·n entries instead of n·n.  Rows are independent
/// per-source Dijkstras and are computed in parallel when `parallel` is
/// true; Instance::finalize builds one with the placement sites' nodes as
/// sources, so row r is the delay row of site r.  FaultState's link-fault
/// overlay is the same table over the edges `edge_up` leaves up.
class DelayTable {
 public:
  DelayTable() = default;

  /// Throws std::invalid_argument when a source is out of range.
  static DelayTable compute(const Graph& g, std::span<const NodeId> sources,
                            bool parallel = true,
                            std::span<const char> edge_up = {});

  [[nodiscard]] std::size_t rows() const noexcept { return sources_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return n_; }
  [[nodiscard]] std::span<const NodeId> sources() const noexcept {
    return sources_;
  }
  [[nodiscard]] double at(std::size_t row, NodeId to) const {
    assert(row < sources_.size() && to < n_);
    return data_[row * n_ + to];
  }
  [[nodiscard]] bool reachable(std::size_t row, NodeId to) const {
    return at(row, to) < kInfDelay;
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    assert(r < sources_.size());
    return {data_.data() + r * n_, n_};
  }

 private:
  std::size_t n_ = 0;
  std::vector<NodeId> sources_;
  std::vector<double> data_;
};

/// All-pairs minimum delays as a dense matrix (row-major, n×n).  Computed by
/// n Dijkstra runs; rows are independent and are computed in parallel when
/// `parallel` is true.  Superseded on the hot path by DelayTable (site rows
/// only); kept as the equivalence oracle and for all-pairs diagnostics.
class DelayMatrix {
 public:
  DelayMatrix() = default;

  static DelayMatrix compute(const Graph& g, bool parallel = true);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] double at(NodeId from, NodeId to) const {
    assert(from < n_ && to < n_);
    return data_[static_cast<std::size_t>(from) * n_ + to];
  }
  [[nodiscard]] bool reachable(NodeId from, NodeId to) const {
    return at(from, to) < kInfDelay;
  }

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

/// Hop-count BFS distances from one source (used by topology diagnostics).
std::vector<std::uint32_t> bfs_hops(const Graph& g, NodeId source);

/// Graph diameter in hops over the largest component (0 for empty graphs).
std::uint32_t hop_diameter(const Graph& g);

}  // namespace edgerep
