// Shared deterministic fixtures for the test suites.
#pragma once

#include <cstdint>

#include "cloud/delay.h"
#include "cloud/instance.h"
#include "workload/arrival_gen.h"
#include "workload/generator.h"

namespace edgerep::testing {

/// A hand-built 2-site instance with fully known delays:
///
///   cl (site 0, cap 10 GHz, d=0.2 s/GB) --0.1-- sw --1.0-- dc (site 1,
///   cap 100 GHz, d=0.05 s/GB)
///
/// Dataset 0: 4 GB, origin dc.  Query 0: home cl, rate 1, α = 0.5.
/// Evaluation delay: at cl = 4·0.2 + 0 = 0.8 s; at dc = 4·0.05 + 0.5·4·1.1
/// = 2.4 s.
struct TinyFixture {
  static constexpr double kDelayAtCl = 0.8;
  static constexpr double kDelayAtDc = 2.4;

  /// `deadline` controls which sites are feasible for query 0.
  static Instance make(double deadline = 1.0, std::size_t max_replicas = 2) {
    Graph g;
    const NodeId cl = g.add_node(NodeRole::kCloudlet);
    const NodeId sw = g.add_node(NodeRole::kSwitch);
    const NodeId dc = g.add_node(NodeRole::kDataCenter);
    g.add_edge(cl, sw, 0.1);
    g.add_edge(sw, dc, 1.0);
    Instance inst(std::move(g));
    const SiteId s_cl = inst.add_site(cl, 10.0, 0.2);
    const SiteId s_dc = inst.add_site(dc, 100.0, 0.05);
    (void)s_dc;
    const DatasetId d0 = inst.add_dataset(4.0, s_dc);
    inst.add_query(s_cl, 1.0, deadline, {{d0, 0.5}});
    inst.set_max_replicas(max_replicas);
    inst.finalize();
    return inst;
  }
};

/// Small random instances for exact-vs-heuristic comparisons (sized so the
/// branch-and-bound reference stays fast).
inline Instance small_instance(std::uint64_t seed, std::size_t f_max = 1,
                               std::size_t max_replicas = 2) {
  WorkloadConfig cfg;
  cfg.network_size = 8;
  cfg.min_datasets = 2;
  cfg.max_datasets = 4;
  cfg.min_queries = 3;
  cfg.max_queries = 6;
  cfg.min_datasets_per_query = 1;
  cfg.max_datasets_per_query = f_max;
  cfg.max_replicas = max_replicas;
  return generate_instance(cfg, seed);
}

/// Mid-size instances for algorithm behaviour tests (too big for the ILP,
/// fine for heuristics).
inline Instance medium_instance(std::uint64_t seed, std::size_t f_max = 4) {
  WorkloadConfig cfg;
  cfg.network_size = 32;
  cfg.min_queries = 30;
  cfg.max_queries = 60;
  cfg.max_datasets_per_query = f_max;
  return generate_instance(cfg, seed);
}

/// The perfbench `admission` shape at 5k queries: 1000 sites, deadlines
/// that leave each demand a few percent of the sites, K = 32 on a Zipf(1)
/// population of 256 datasets, and available capacity scaled to total
/// demand / 1.5, so capacity and K both bind.  Other sizes keep the rest.
inline Instance tight_deadline_instance(std::size_t queries = 5'000,
                                        std::size_t sites = 1000) {
  StreamWorkloadConfig wc;
  wc.sites = sites;
  wc.queries = queries;
  wc.datasets = 256;
  wc.max_demands = 3;
  wc.max_replicas = 32;
  wc.zipf_exponent = 1.0;
  wc.deadline_per_gb = {0.03, 0.06};
  wc.selectivity = {0.4, 0.8};
  wc.proc_delay = {0.005, 0.02};
  wc.volume = {3.0, 4.0};
  Instance inst = stream_instance(wc, 0x1d5);
  double demand = 0.0;
  for (const Query& q : inst.queries()) {
    for (const DatasetDemand& dd : q.demands) {
      demand += resource_demand(inst, q, dd);
    }
  }
  double capacity = 0.0;
  for (const Site& s : inst.sites()) capacity += s.capacity;
  const double factor = demand / 1.5 / capacity;
  for (const Site& s : inst.sites()) {
    inst.set_available(s.id, s.capacity * factor);
  }
  return inst;
}

}  // namespace edgerep::testing
