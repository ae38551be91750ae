#include "core/admission.h"

#include <algorithm>
#include <functional>
#include <span>
#include <utility>

#include "util/rng.h"

namespace edgerep {

void order_queries(const Instance& inst, const ApproOptions& opts,
                   std::vector<QueryId>& queries) {
  std::sort(queries.begin(), queries.end());
  // Sums each query's demanded volume once, before the sort.
  const auto by_volume = [&](auto before) {
    std::vector<std::pair<double, QueryId>> keyed;
    keyed.reserve(queries.size());
    for (const QueryId m : queries) {
      keyed.emplace_back(inst.demanded_volume(m), m);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const auto& a, const auto& b) {
                       return before(a.first, b.first);
                     });
    for (std::size_t i = 0; i < keyed.size(); ++i) {
      queries[i] = keyed[i].second;
    }
  };
  switch (opts.order) {
    case ApproOptions::Order::kInput:
      break;
    case ApproOptions::Order::kVolumeDesc:
      by_volume(std::greater<>());
      break;
    case ApproOptions::Order::kVolumeAsc:
      by_volume(std::less<>());
      break;
    case ApproOptions::Order::kDeadlineAsc:
      std::stable_sort(queries.begin(), queries.end(),
                       [&](QueryId a, QueryId b) {
                         return inst.query(a).deadline < inst.query(b).deadline;
                       });
      break;
    case ApproOptions::Order::kRandom: {
      Rng rng(opts.seed);
      rng.shuffle(std::span<QueryId>(queries));
      break;
    }
  }
}

void mark_atomic_rollback(std::vector<obs::AuditEntry>* audit,
                          std::size_t begin) {
  if (audit == nullptr) return;
  for (std::size_t i = begin; i + 1 < audit->size(); ++i) {
    (*audit)[i].admitted = false;
    (*audit)[i].reason = obs::AuditReason::kAtomicRollback;
  }
}

}  // namespace edgerep
