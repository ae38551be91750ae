#include "core/admission.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>

#include "util/rng.h"

namespace edgerep {

namespace {

/// Rank `queries` stably by ascending key(m): an LSD radix sort over the
/// key's bytes that skips a byte every key shares.  Equal keys keep their
/// order.
template <class Key>
void radix_rank(std::vector<QueryId>& queries, Key&& key) {
  constexpr std::size_t kDigits = sizeof(std::uint64_t);
  const std::size_t n = queries.size();
  std::vector<std::pair<std::uint64_t, QueryId>> keyed(n);
  std::vector<std::pair<std::uint64_t, QueryId>> out(n);
  std::array<std::array<std::size_t, 256>, kDigits> count{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = key(queries[i]);
    keyed[i] = {k, queries[i]};
    for (std::size_t d = 0; d < kDigits; ++d) ++count[d][(k >> (8 * d)) & 0xff];
  }
  for (std::size_t d = 0; d < kDigits; ++d) {
    std::array<std::size_t, 256>& at = count[d];
    if (std::find(at.begin(), at.end(), n) != at.end()) continue;
    std::exclusive_scan(at.begin(), at.end(), at.begin(), std::size_t{0});
    for (const auto& e : keyed) out[at[(e.first >> (8 * d)) & 0xff]++] = e;
    keyed.swap(out);
  }
  for (std::size_t i = 0; i < n; ++i) queries[i] = keyed[i].second;
}

/// Non-negative doubles (NaN excluded) order as their bit patterns.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

void order_queries(const Instance& inst, const ApproOptions& opts,
                   std::vector<QueryId>& queries) {
  std::sort(queries.begin(), queries.end());
  // Volumes and deadlines are positive or +inf (Instance rejects the rest),
  // so every key below orders as the value it encodes.
  switch (opts.order) {
    case ApproOptions::Order::kInput:
      break;
    case ApproOptions::Order::kVolumeDesc:
      radix_rank(queries,
                 [&](QueryId m) { return ~bits(inst.demanded_volume(m)); });
      break;
    case ApproOptions::Order::kVolumeAsc:
      radix_rank(queries,
                 [&](QueryId m) { return bits(inst.demanded_volume(m)); });
      break;
    case ApproOptions::Order::kDeadlineAsc:
      radix_rank(queries,
                 [&](QueryId m) { return bits(inst.query(m).deadline); });
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
