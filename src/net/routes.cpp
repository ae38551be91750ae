#include "net/routes.h"

#include <algorithm>
#include <stdexcept>

#include "net/shortest_path.h"

namespace edgerep {

RouteTable RouteTable::compute(const Graph& g, std::span<const NodeId> sources,
                               std::span<const char> edge_up) {
  RouteTable t;
  t.n_ = g.num_nodes();
  for (const NodeId s : sources) {
    if (s >= t.n_) {
      throw std::invalid_argument("RouteTable::compute: source out of range");
    }
  }
  t.sources_.assign(sources.begin(), sources.end());
  t.row_slot_.assign(t.sources_.size(), kUnfilled);
  t.edge_up_.assign(edge_up.begin(), edge_up.end());
  return t;
}

void RouteTable::set_edge_mask(std::span<const char> edge_up) {
  edge_up_.assign(edge_up.begin(), edge_up.end());
  std::fill(row_slot_.begin(), row_slot_.end(), kUnfilled);
  hops_.clear();
}

const RouteTable::Hop* RouteTable::fill_row(const Graph& g, std::size_t row) {
  std::vector<NodeId> parent(n_);
  fill_shortest_path_rows(g, {&sources_[row], 1}, /*parallel=*/false, {},
                          parent, edge_up_);
  row_slot_[row] = static_cast<std::uint32_t>(hops_.size() / n_);
  hops_.resize(hops_.size() + n_);
  Hop* hop = hops_.data() + hops_.size() - n_;
  for (NodeId v = 0; v < n_; ++v) {
    const NodeId p = parent[v];
    if (p == kInvalidNode) continue;  // the source, or unreachable
    // The cheapest parallel edge p–v that is up; the first cheapest wins
    // on equal delays.
    EdgeId best = kInvalidEdge;
    for (const HalfEdge& he : g.neighbors(p)) {
      if (he.to != v) continue;
      if (!edge_up_.empty() && !edge_up_[he.edge]) continue;
      if (best == kInvalidEdge || he.delay < g.edge(best).delay) {
        best = he.edge;
      }
    }
    if (best == kInvalidEdge) {
      throw std::logic_error("RouteTable: broken parent forest");
    }
    hop[v] = {p, best};
  }
  return hop;
}

bool RouteTable::edge_path(const Graph& g, std::size_t row, NodeId target,
                           std::vector<EdgeId>& out) {
  out.clear();
  if (row >= sources_.size() || target >= n_) {
    throw std::out_of_range("RouteTable::edge_path: row or target out of range");
  }
  const NodeId source = sources_[row];
  if (target == source) return true;
  const Hop* hop = row_slot_[row] == kUnfilled
                       ? fill_row(g, row)
                       : hops_.data() + std::size_t{row_slot_[row]} * n_;
  for (NodeId v = target; v != source; v = hop[v].parent) {
    if (hop[v].parent == kInvalidNode) {  // unreachable from this source
      out.clear();
      return false;
    }
    out.push_back(hop[v].edge);
  }
  std::reverse(out.begin(), out.end());
  return true;
}

}  // namespace edgerep
