#include "net/routes.h"

#include <algorithm>
#include <stdexcept>

#include "net/shortest_path.h"

namespace edgerep {

RouteTable RouteTable::compute(const Graph& g, std::span<const NodeId> sources,
                               bool parallel, std::span<const char> edge_up) {
  RouteTable t;
  t.n_ = g.num_nodes();
  t.sources_.assign(sources.begin(), sources.end());
  t.parent_.resize(t.sources_.size() * t.n_);
  t.edge_up_.assign(edge_up.begin(), edge_up.end());
  fill_shortest_path_rows(g, t.sources_, parallel, {}, t.parent_, edge_up);
  return t;
}

bool RouteTable::edge_path(const Graph& g, std::size_t row, NodeId target,
                           std::vector<EdgeId>& out) const {
  out.clear();
  if (row >= sources_.size() || target >= n_) {
    throw std::out_of_range("RouteTable::edge_path: row or target out of range");
  }
  const NodeId source = sources_[row];
  if (target == source) return true;
  const NodeId* parent = parent_.data() + row * n_;
  // Walk target → source through the parent forest, resolving each hop to
  // the cheapest parallel edge that is up (the first cheapest wins on equal
  // delays).
  for (NodeId v = target; v != source;) {
    const NodeId p = parent[v];
    if (p == kInvalidNode) {  // unreachable from this source
      out.clear();
      return false;
    }
    EdgeId best = kInvalidEdge;
    for (const HalfEdge& he : g.neighbors(p)) {
      if (he.to != v) continue;
      if (!edge_up_.empty() && !edge_up_[he.edge]) continue;
      if (best == kInvalidEdge || he.delay < g.edge(best).delay) {
        best = he.edge;
      }
    }
    if (best == kInvalidEdge) {
      throw std::logic_error("RouteTable::edge_path: broken parent forest");
    }
    out.push_back(best);
    v = p;
  }
  std::reverse(out.begin(), out.end());
  return true;
}

}  // namespace edgerep
