#include "core/admission.h"

#include <algorithm>
#include <span>

#include "util/rng.h"

namespace edgerep {

void order_queries(const Instance& inst, const ApproOptions& opts,
                   std::vector<QueryId>& queries) {
  std::sort(queries.begin(), queries.end());
  auto by = [&](auto key) {
    std::stable_sort(queries.begin(), queries.end(), key);
  };
  switch (opts.order) {
    case ApproOptions::Order::kInput:
      break;
    case ApproOptions::Order::kVolumeDesc:
      by([&](QueryId a, QueryId b) {
        return inst.demanded_volume(a) > inst.demanded_volume(b);
      });
      break;
    case ApproOptions::Order::kVolumeAsc:
      by([&](QueryId a, QueryId b) {
        return inst.demanded_volume(a) < inst.demanded_volume(b);
      });
      break;
    case ApproOptions::Order::kDeadlineAsc:
      by([&](QueryId a, QueryId b) {
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
