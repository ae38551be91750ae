#include "core/candidate_index.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/thread_pool.h"

namespace edgerep {

CandidateIndex::CandidateIndex(const Instance& inst, bool parallel) {
  if (!inst.finalized()) {
    throw std::invalid_argument("CandidateIndex: instance not finalized");
  }
  const auto sites = inst.sites();
  const auto queries = inst.queries();
  const std::size_t n_sites = sites.size();

  inv_avail_.resize(n_sites);
  avail_.resize(n_sites);
  std::vector<double> proc(n_sites);
  for (const Site& s : sites) {
    inv_avail_[s.id] = 1.0 / std::max(s.available, 1e-12);
    avail_[s.id] = s.available;
    proc[s.id] = s.proc_delay;
  }

  query_offset_.resize(queries.size() + 1);
  std::size_t slots = 0;
  for (const Query& q : queries) {
    query_offset_[q.id] = slots;
    slots += q.demands.size();
  }
  query_offset_[queries.size()] = slots;
  need_.resize(slots);
  slot_begin_.assign(slots + 1, 0);

  // Queries sharing a home share the delays to it, so they are visited
  // grouped by home and read one gathered column instead of a strided
  // column of the site-rows table.
  std::vector<QueryId> by_home(queries.size());
  std::iota(by_home.begin(), by_home.end(), QueryId{0});
  std::stable_sort(by_home.begin(), by_home.end(), [&](QueryId a, QueryId b) {
    return queries[a].home < queries[b].home;
  });

  // Calls visit(q, slot, vol, sel_vol, column) for every demand, where
  // column[s] = path_delay(s, q.home).  Each slot's result is a pure
  // function of the slot, so any split of the list into blocks — and so
  // any thread count — builds the same arrays.
  const auto sweep = [&](const auto& visit) {
    const auto block = [&](std::size_t begin, std::size_t end) {
      std::vector<double> column(n_sites);
      SiteId home = kInvalidSite;
      for (std::size_t i = begin; i < end; ++i) {
        const Query& q = queries[by_home[i]];
        if (q.home != home) {
          home = q.home;
          for (std::size_t s = 0; s < n_sites; ++s) {
            column[s] = inst.path_delay(static_cast<SiteId>(s), home);
          }
        }
        std::size_t slot = query_offset_[q.id];
        for (const DatasetDemand& dd : q.demands) {
          const double vol = inst.dataset(dd.dataset).volume;
          visit(q, slot++, vol, dd.selectivity * vol, column.data());
        }
      }
    };
    if (parallel && queries.size() * n_sites > 4096) {
      global_pool().parallel_for_blocked(queries.size(), block);
    } else {
      block(0, queries.size());
    }
  };

  // Both passes evaluate the naive scan's deadline test, vol·proc +
  // (α·vol)·path ≤ deadline, in its operation order, so rows hold the same
  // sites and the same η bits.  Count pass: row lengths land one slot up,
  // and a prefix sum turns them into row offsets.
  sweep([&](const Query& q, std::size_t slot, double vol, double sel_vol,
            const double* column) {
    need_[slot] = vol * q.rate;
    const double deadline = q.deadline;
    std::size_t n = 0;
    for (std::size_t s = 0; s < n_sites; ++s) {
      n += vol * proc[s] + sel_vol * column[s] <= deadline ? 1 : 0;
    }
    slot_begin_[slot + 1] = n;
  });
  std::partial_sum(slot_begin_.begin(), slot_begin_.end(),
                   slot_begin_.begin());
  const std::size_t total = slot_begin_[slots];
  soa_site_ = std::make_unique_for_overwrite<SiteId[]>(total);
  soa_inv_ = std::make_unique_for_overwrite<double[]>(total);
  soa_dod_ = std::make_unique_for_overwrite<double[]>(total);

  // Fill pass: every row is written in place at its final offset.
  SiteId* const site_out = soa_site_.get();
  double* const inv_out = soa_inv_.get();
  double* const dod_out = soa_dod_.get();
  sweep([&](const Query& q, std::size_t slot, double vol, double sel_vol,
            const double* column) {
    const double deadline = q.deadline;
    std::size_t k = slot_begin_[slot];
    for (std::size_t s = 0; s < n_sites; ++s) {
      const double delay = vol * proc[s] + sel_vol * column[s];
      if (delay <= deadline) {
        site_out[k] = static_cast<SiteId>(s);
        inv_out[k] = inv_avail_[s];
        dod_out[k] = delay / deadline;
        ++k;
      }
    }
    assert(k == slot_begin_[slot + 1]);
  });
}

}  // namespace edgerep
