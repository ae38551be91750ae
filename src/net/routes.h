// Shortest-path edge routing shared by the testbed simulator's max-min
// fair transfers and the online flow backend.
//
// The delay model only needs minimum *delays* (DelayTable); the flow-level
// network model additionally needs the concrete edge sequence each transfer
// occupies.  `RouteTable` stores one shortest-path parent forest per source
// (the placement sites' nodes, mirroring DelayTable rows, filled by the same
// row fill) and extracts the edge ids of a source→target path on demand,
// picking the cheapest parallel edge at every hop (the first cheapest wins
// on equal delays), so both transfer models route identically.  Like
// DelayTable, a table can route over only the edges an up-mask leaves up,
// which is how the online flow backend routes around downed links.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/graph.h"

namespace edgerep {

/// Per-source shortest-path parent forests with edge-path extraction.
/// Rows follow the source order handed to compute(); row r of a table built
/// from the placement sites' nodes is the route forest of site r.  Rows are
/// independent Dijkstra runs and deterministic at any thread count (the
/// workspace engine's strict (dist, node) tie-break fixes every parent).
class RouteTable {
 public:
  RouteTable() = default;

  /// Throws std::invalid_argument when a source is out of range.  A
  /// non-empty `edge_up` (one flag per graph edge) restricts the routes to
  /// the edges it marks up, as it restricts DelayTable::compute's delays.
  static RouteTable compute(const Graph& g, std::span<const NodeId> sources,
                            bool parallel = true,
                            std::span<const char> edge_up = {});

  [[nodiscard]] std::size_t rows() const noexcept { return sources_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return n_; }
  [[nodiscard]] std::span<const NodeId> sources() const noexcept {
    return sources_;
  }

  /// Edge ids of the shortest path source(row) → target, in travel order.
  /// `out` is cleared and refilled (reusing its capacity keeps repeated
  /// extraction allocation-free).  Empty when target == source(row).
  /// Returns false (with `out` cleared) when target is unreachable.
  bool edge_path(const Graph& g, std::size_t row, NodeId target,
                 std::vector<EdgeId>& out) const;

 private:
  std::size_t n_ = 0;
  std::vector<NodeId> sources_;
  std::vector<NodeId> parent_;  ///< rows() × n_, row-major parent forests
  std::vector<char> edge_up_;   ///< empty: every edge is up
};

}  // namespace edgerep
