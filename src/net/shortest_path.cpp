#include "net/shortest_path.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "util/thread_pool.h"

namespace edgerep {

void DijkstraWorkspace::ensure_size(std::size_t n) {
  if (dist_.size() < n) {
    dist_.resize(n);
    parent_.resize(n);
    stamp_.resize(n, 0);
  }
}

void DijkstraWorkspace::heap_push(HeapItem item) {
  std::size_t i = heap_.size();
  heap_.push_back(item);
  while (i > 0) {
    const std::size_t p = (i - 1) / 4;
    if (!less(item, heap_[p])) break;
    heap_[i] = heap_[p];
    i = p;
  }
  heap_[i] = item;
}

DijkstraWorkspace::HeapItem DijkstraWorkspace::heap_pop() {
  const HeapItem top = heap_.front();
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t lim = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < lim; ++c) {
        if (less(heap_[c], heap_[best])) best = c;
      }
      if (!less(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

template <bool kMasked>
void DijkstraWorkspace::search(const Graph& g, NodeId source,
                               const char* edge_up) {
  heap_.clear();
  dist_[source] = 0.0;
  parent_[source] = kInvalidNode;
  stamp_[source] = generation_;
  heap_push({0.0, source});

  // Hoist the CSR arrays out of the loop when available; otherwise fall
  // back to the per-node adjacency vectors (unsealed graphs).
  const bool csr = g.sealed();
  const std::size_t* off = csr ? g.csr_offsets().data() : nullptr;
  const HalfEdge* half = csr ? g.csr_half_edges().data() : nullptr;

  while (!heap_.empty()) {
    const HeapItem item = heap_pop();
    const NodeId v = item.node;
    if (item.dist > dist_[v]) continue;  // stale entry
    const HalfEdge* he;
    const HalfEdge* end;
    if (csr) {
      he = half + off[v];
      end = half + off[v + 1];
    } else {
      const auto nb = g.neighbors(v);
      he = nb.data();
      end = he + nb.size();
    }
    for (; he != end; ++he) {
      if constexpr (kMasked) {
        if (!edge_up[he->edge]) continue;
      }
      const NodeId to = he->to;
      const double nd = item.dist + he->delay;
      if (stamp_[to] != generation_ || nd < dist_[to]) {
        dist_[to] = nd;
        parent_[to] = v;
        stamp_[to] = generation_;
        heap_push({nd, to});
      }
    }
  }
}

void DijkstraWorkspace::run(const Graph& g, NodeId source,
                            std::span<double> out_dist,
                            std::span<NodeId> out_parent,
                            std::span<const char> edge_up) {
  const std::size_t n = g.num_nodes();
  if (source >= n) {
    throw std::invalid_argument("DijkstraWorkspace::run: source out of range");
  }
  assert(out_dist.empty() || out_dist.size() == n);
  assert(out_parent.empty() || out_parent.size() == n);
  assert(edge_up.empty() || edge_up.size() == g.num_edges());
  ensure_size(n);
  if (++generation_ == 0) {  // stamp wrap: invalidate every mark once
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    generation_ = 1;
  }
  if (edge_up.empty()) {
    search<false>(g, source, nullptr);
  } else {
    search<true>(g, source, edge_up.data());
  }

  if (!out_dist.empty()) {
    for (std::size_t v = 0; v < n; ++v) {
      out_dist[v] = stamp_[v] == generation_ ? dist_[v] : kInfDelay;
    }
  }
  if (!out_parent.empty()) {
    for (std::size_t v = 0; v < n; ++v) {
      out_parent[v] = stamp_[v] == generation_ ? parent_[v] : kInvalidNode;
    }
  }
}

void fill_shortest_path_rows(const Graph& g, std::span<const NodeId> sources,
                             bool parallel, std::span<double> dist,
                             std::span<NodeId> parent,
                             std::span<const char> edge_up) {
  const std::size_t n = g.num_nodes();
  assert(dist.empty() || dist.size() == sources.size() * n);
  assert(parent.empty() || parent.size() == sources.size() * n);
  auto fill_row = [&](std::size_t r) {
    thread_local DijkstraWorkspace ws;
    ws.run(g, sources[r], dist.empty() ? dist : dist.subspan(r * n, n),
           parent.empty() ? parent : parent.subspan(r * n, n), edge_up);
  };
  const bool fan_out =
      parallel && sources.size() > 1 &&
      (n > kParallelForThreshold || sources.size() > kParallelForThreshold);
  if (fan_out) {
    global_pool().parallel_for(sources.size(), fill_row);
  } else {
    for (std::size_t r = 0; r < sources.size(); ++r) fill_row(r);
  }
}

ShortestPathTree dijkstra(const Graph& g, NodeId source) {
  ShortestPathTree t;
  t.dist.resize(g.num_nodes());
  t.parent.resize(g.num_nodes());
  fill_shortest_path_rows(g, {&source, 1}, /*parallel=*/false, t.dist,
                          t.parent);
  return t;
}

DelayTable DelayTable::compute(const Graph& g, std::span<const NodeId> sources,
                               bool parallel, std::span<const char> edge_up) {
  DelayTable t;
  t.n_ = g.num_nodes();
  t.sources_.assign(sources.begin(), sources.end());
  t.data_.resize(t.sources_.size() * t.n_);
  fill_shortest_path_rows(g, t.sources_, parallel, t.data_, {}, edge_up);
  return t;
}

DelayMatrix DelayMatrix::compute(const Graph& g, bool parallel) {
  DelayMatrix m;
  m.n_ = g.num_nodes();
  std::vector<NodeId> sources(m.n_);
  std::iota(sources.begin(), sources.end(), NodeId{0});
  m.data_.resize(m.n_ * m.n_);
  fill_shortest_path_rows(g, sources, parallel, m.data_);
  return m;
}

std::vector<std::uint32_t> bfs_hops(const Graph& g, NodeId source) {
  constexpr auto kUnseen = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> hops(g.num_nodes(), kUnseen);
  std::queue<NodeId> q;
  hops.at(source) = 0;
  q.push(source);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (const HalfEdge& he : g.neighbors(v)) {
      if (hops[he.to] == kUnseen) {
        hops[he.to] = hops[v] + 1;
        q.push(he.to);
      }
    }
  }
  return hops;
}

std::uint32_t hop_diameter(const Graph& g) {
  constexpr auto kUnseen = static_cast<std::uint32_t>(-1);
  const std::size_t n = g.num_nodes();
  // BFS sources are independent; write each source's eccentricity to its own
  // slot and reduce afterwards, so the parallel run is deterministic.
  std::vector<std::uint32_t> ecc(n, 0);
  auto from_source = [&](std::size_t s) {
    const auto hops = bfs_hops(g, static_cast<NodeId>(s));
    std::uint32_t best = 0;
    for (const auto h : hops) {
      if (h != kUnseen) best = std::max(best, h);
    }
    ecc[s] = best;
  };
  if (n > kParallelForThreshold) {
    global_pool().parallel_for(n, from_source);
  } else {
    for (std::size_t s = 0; s < n; ++s) from_source(s);
  }
  std::uint32_t best = 0;
  for (const auto e : ecc) best = std::max(best, e);
  return best;
}

}  // namespace edgerep
