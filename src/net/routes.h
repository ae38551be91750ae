// Shortest-path edge routing shared by the testbed simulator's max-min
// fair transfers and the online flow backend.
//
// The delay model only needs minimum *delays* (DelayTable); the flow-level
// network model additionally needs the concrete edge sequence each transfer
// occupies.  `RouteTable` stores one shortest-path forest per source (the
// placement sites' nodes, mirroring DelayTable rows, filled by the same row
// fill) and extracts the edge ids of a source→target path on demand.  Each
// hop is the cheapest parallel edge (the first cheapest wins on equal
// delays), so both transfer models route identically.  Like DelayTable, a
// table can route over only the edges an up-mask leaves up, which is how
// the online flow backend routes around downed links.
//
// Rows fill on first use: a transfer workload typically sends from a few of
// the sites, so a row's Dijkstra runs only when a path first leaves its
// source, and each hop is resolved to its edge then, once.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/graph.h"

namespace edgerep {

/// Per-source shortest-path forests with edge-path extraction.  Rows follow
/// the source order handed to compute(); row r of a table built from the
/// placement sites' nodes is the route forest of site r.  A row is one
/// Dijkstra (the workspace engine's strict (dist, node) tie-break fixes
/// every parent), so paths do not depend on which rows filled first.
/// Filling a row mutates the table: a table serves one thread.
class RouteTable {
 public:
  RouteTable() = default;

  /// Records the sources and the edge mask; fills no row.  Throws
  /// std::invalid_argument when a source is out of range.  A non-empty
  /// `edge_up` (one flag per graph edge) restricts the routes to the edges
  /// it marks up, as it restricts DelayTable::compute's delays.
  static RouteTable compute(const Graph& g, std::span<const NodeId> sources,
                            std::span<const char> edge_up = {});

  /// Route later paths over `edge_up` instead (same meaning as compute's):
  /// every filled row is dropped and refills on its next use.
  void set_edge_mask(std::span<const char> edge_up);

  [[nodiscard]] std::size_t rows() const noexcept { return sources_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return n_; }
  [[nodiscard]] std::span<const NodeId> sources() const noexcept {
    return sources_;
  }

  /// Edge ids of the shortest path source(row) → target, in travel order;
  /// fills the row on its first use.  `out` is cleared and refilled
  /// (reusing its capacity keeps repeated extraction allocation-free).
  /// Empty when target == source(row).  Returns false (with `out` cleared)
  /// when target is unreachable.
  bool edge_path(const Graph& g, std::size_t row, NodeId target,
                 std::vector<EdgeId>& out);

 private:
  /// A node's last hop in its row's forest: the parent and the edge taken
  /// from it (kInvalidNode / kInvalidEdge at the source and unreachable
  /// nodes).
  struct Hop {
    NodeId parent = kInvalidNode;
    EdgeId edge = kInvalidEdge;
  };
  static constexpr std::uint32_t kUnfilled = static_cast<std::uint32_t>(-1);

  /// Runs row `row`'s Dijkstra and resolves each node's hop to the cheapest
  /// parallel edge that is up; returns the row's hops.
  const Hop* fill_row(const Graph& g, std::size_t row);

  std::size_t n_ = 0;
  std::vector<NodeId> sources_;
  std::vector<char> edge_up_;            ///< empty: every edge is up
  std::vector<std::uint32_t> row_slot_;  ///< per row: block in hops_
  std::vector<Hop> hops_;                ///< filled rows, n_ hops each
};

}  // namespace edgerep
