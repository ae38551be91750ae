#include "workload/arrival_gen.h"

#include <span>
#include <stdexcept>

#include "net/topology.h"
#include "sim/arrivals.h"
#include "util/rng.h"

namespace edgerep {

std::vector<Arrival> generate_arrival_stream(const Instance& inst, double rate,
                                             std::uint64_t seed,
                                             ArrivalOrder order,
                                             double wave_amplitude,
                                             double wave_period) {
  if (!inst.finalized()) {
    throw std::invalid_argument("generate_arrival_stream: not finalized");
  }
  check_arrival_params("generate_arrival_stream", rate, wave_amplitude,
                       wave_period);
  const std::size_t n = inst.queries().size();
  std::vector<QueryId> ids(n);
  for (QueryId m = 0; m < n; ++m) ids[m] = m;
  if (order == ArrivalOrder::kShuffled) {
    Rng shuffle_rng(derive_seed(seed, 1));
    shuffle_rng.shuffle(std::span<QueryId>(ids));
  }
  Rng gap_rng(derive_seed(seed, 2));
  std::vector<Arrival> stream(n);
  double t = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    t += wave_gap(gap_rng.exponential(rate), t, wave_amplitude, wave_period);
    stream[k] = {t, ids[k]};
  }
  return stream;
}

Instance stream_instance(const StreamWorkloadConfig& cfg, std::uint64_t seed) {
  if (cfg.sites < 2 || cfg.datasets == 0 || cfg.queries == 0) {
    throw std::invalid_argument("stream_instance: bad counts");
  }
  // Independent substreams per concern, mirroring generate_instance: the
  // site draw is stable when the query count changes and vice versa.
  Rng topo_rng(derive_seed(seed, 1));
  Rng site_rng(derive_seed(seed, 2));
  Rng data_rng(derive_seed(seed, 3));
  Rng query_rng(derive_seed(seed, 4));
  // Zipf popularity draws live on their own substream so turning the skew
  // on perturbs nothing but the dataset choice itself.
  const bool zipf_on = cfg.zipf_exponent > 0.0;
  Rng zipf_rng(derive_seed(seed, 5));
  std::size_t queries_drawn = 0;
  auto draw_dataset = [&]() -> DatasetId {
    // The uniform draw always happens so query_rng stays aligned: with the
    // skew on, every non-dataset field (home, rate, deadline, selectivity)
    // is bit-identical to the uniform instance of the same seed.
    const auto uniform =
        static_cast<DatasetId>(query_rng.uniform_u64(0, cfg.datasets - 1));
    if (zipf_on) {
      const std::uint64_t rank =
          zipf_rng.zipf(cfg.datasets, cfg.zipf_exponent);
      const std::size_t rotation = cfg.zipf_drift_period > 0
                                       ? queries_drawn / cfg.zipf_drift_period
                                       : 0;
      return static_cast<DatasetId>((rank - 1 + rotation) % cfg.datasets);
    }
    return uniform;
  };

  const double p =
      cfg.avg_degree / static_cast<double>(cfg.sites - 1);
  Instance inst(gnp(cfg.sites, p, cfg.link_delay, topo_rng));
  for (std::size_t n = 0; n < cfg.sites; ++n) {
    inst.add_site(static_cast<NodeId>(n), cfg.capacity.sample(site_rng),
                  cfg.proc_delay.sample(site_rng));
  }
  for (std::size_t n = 0; n < cfg.datasets; ++n) {
    const auto origin =
        static_cast<SiteId>(data_rng.uniform_u64(0, cfg.sites - 1));
    inst.add_dataset(cfg.volume.sample(data_rng), origin);
  }
  for (std::size_t m = 0; m < cfg.queries; ++m) {
    const auto home =
        static_cast<SiteId>(query_rng.uniform_u64(0, cfg.sites - 1));
    if (cfg.max_demands <= 1) {
      // Special case, drawn in the historical order so every existing
      // (config, seed) pair keeps its exact instance bit-for-bit.
      const DatasetId ds = draw_dataset();
      const double vol = inst.dataset(ds).volume;
      const double deadline = cfg.deadline_per_gb.sample(query_rng) * vol;
      inst.add_query(home, cfg.rate.sample(query_rng), deadline,
                     {DatasetDemand{ds, cfg.selectivity.sample(query_rng)}});
      ++queries_drawn;
      continue;
    }
    const std::size_t want = query_rng.uniform_u64(1, cfg.max_demands);
    std::vector<DatasetDemand> demands;
    demands.reserve(want);
    double vol = 0.0;
    for (std::size_t d = 0; d < want; ++d) {
      const DatasetId ds = draw_dataset();
      bool dup = false;
      for (const DatasetDemand& have : demands) dup |= have.dataset == ds;
      if (dup) continue;  // distinct datasets; duplicates shrink the draw
      vol += inst.dataset(ds).volume;
      demands.push_back({ds, cfg.selectivity.sample(query_rng)});
    }
    const double deadline = cfg.deadline_per_gb.sample(query_rng) * vol;
    inst.add_query(home, cfg.rate.sample(query_rng), deadline,
                   std::move(demands));
    ++queries_drawn;
  }
  inst.set_max_replicas(cfg.max_replicas);
  inst.finalize();
  return inst;
}

}  // namespace edgerep
