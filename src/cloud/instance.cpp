#include "cloud/instance.h"

#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace edgerep {

SiteId Instance::add_site(NodeId node, double capacity, double proc_delay) {
  if (node >= graph_.num_nodes()) {
    throw std::invalid_argument("add_site: node out of range");
  }
  if (capacity < 0.0 || proc_delay < 0.0) {
    throw std::invalid_argument("add_site: negative capacity or delay");
  }
  const auto id = static_cast<SiteId>(sites_.size());
  sites_.push_back(Site{id, node, graph_.role(node), capacity, capacity,
                        proc_delay});
  finalized_ = false;
  return id;
}

void Instance::set_available(SiteId s, double available) {
  Site& site = sites_.at(s);
  if (available < 0.0 || available > site.capacity) {
    throw std::invalid_argument("set_available: out of [0, capacity]");
  }
  site.available = available;
}

DatasetId Instance::add_dataset(double volume, SiteId origin,
                                std::string name) {
  if (!(volume > 0.0)) {  // NaN fails too: it would break every ordering
    throw std::invalid_argument("add_dataset: volume must be positive");
  }
  const auto id = static_cast<DatasetId>(datasets_.size());
  datasets_.push_back(Dataset{id, volume, origin, std::move(name)});
  finalized_ = false;
  return id;
}

QueryId Instance::add_query(SiteId home, double rate, double deadline,
                            std::vector<DatasetDemand> demands) {
  // Written so that NaN fails too; +inf stays legal.
  if (!(rate > 0.0)) throw std::invalid_argument("add_query: rate must be > 0");
  if (!(deadline > 0.0)) {
    throw std::invalid_argument("add_query: deadline must be > 0");
  }
  if (demands.empty()) {
    throw std::invalid_argument("add_query: query demands no datasets");
  }
  const auto id = static_cast<QueryId>(queries_.size());
  queries_.push_back(Query{id, home, rate, deadline, std::move(demands)});
  finalized_ = false;
  return id;
}

void Instance::finalize() {
  if (finalized_) return;
  EDGEREP_TRACE_SCOPE("instance.finalize");
  if (sites_.empty()) throw std::invalid_argument("finalize: no sites");
  for (const Site& s : sites_) {
    if (s.node >= graph_.num_nodes()) {
      throw std::invalid_argument("finalize: site node out of range");
    }
  }
  for (const Dataset& d : datasets_) {
    if (d.origin != kInvalidSite && d.origin >= sites_.size()) {
      throw std::invalid_argument("finalize: dataset origin out of range");
    }
  }
  for (const Query& q : queries_) {
    if (q.home >= sites_.size()) {
      throw std::invalid_argument("finalize: query home out of range");
    }
    for (const DatasetDemand& dd : q.demands) {
      if (dd.dataset >= datasets_.size()) {
        throw std::invalid_argument("finalize: demand references dataset " +
                                    std::to_string(dd.dataset) +
                                    " which does not exist");
      }
      if (dd.selectivity <= 0.0 || dd.selectivity > 1.0) {
        throw std::invalid_argument("finalize: selectivity must be in (0, 1]");
      }
    }
  }
  if (max_replicas_ < 1) {
    throw std::invalid_argument("finalize: max_replicas must be >= 1");
  }
  node_to_site_.assign(graph_.num_nodes(), kInvalidSite);
  for (const Site& s : sites_) node_to_site_[s.node] = s.id;
  {
    EDGEREP_TRACE_SCOPE("finalize.seal_graph");
    graph_.seal();
  }
  {
    EDGEREP_TRACE_SCOPE("finalize.delay_table");
    if (backend_ == DelayBackend::kDense) {
      dense_delays_ = DelayMatrix::compute(graph_);
      site_delays_ = DelayTable{};
    } else {
      std::vector<NodeId> sources;
      sources.reserve(sites_.size());
      for (const Site& s : sites_) sources.push_back(s.node);
      site_delays_ = DelayTable::compute(graph_, sources);
      dense_delays_ = DelayMatrix{};
    }
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& finalizes = obs::metrics().counter(
        "edgerep_instance_finalize_total", "Instance::finalize calls");
    static obs::Counter& entries = obs::metrics().counter(
        "edgerep_delay_entries_total",
        "delay-table entries precomputed by finalize");
    finalizes.inc();
    const std::size_t rows =
        backend_ == DelayBackend::kDense ? graph_.num_nodes() : sites_.size();
    entries.inc(rows * graph_.num_nodes());
  }
  finalized_ = true;
}

double Instance::demanded_volume(QueryId m) const {
  double total = 0.0;
  for (const DatasetDemand& dd : query(m).demands) {
    total += dataset(dd.dataset).volume;
  }
  return total;
}

double Instance::total_demanded_volume() const {
  double total = 0.0;
  for (const Query& q : queries_) total += demanded_volume(q.id);
  return total;
}

SiteId Instance::site_of_node(NodeId node) const {
  if (node >= node_to_site_.size()) return kInvalidSite;
  return node_to_site_[node];
}

}  // namespace edgerep
