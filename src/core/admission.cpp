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

PricedChoice admit_demand(const Instance& inst, const Query& q,
                          std::size_t di, const CandidateSoA& row,
                          const PricingState& state, double need,
                          DualState& duals, obs::AuditEntry* audit) {
  const DatasetId n = q.demands[di].dataset;
  const double mu_term =
      kReplicaWeight / static_cast<double>(inst.max_replicas());
  const PricedChoice ch =
      price_candidates(row, state, need, kEtaWeight, mu_term);
  const bool admitted = ch.candidate != PricedChoice::kNoCandidate;
  if (audit != nullptr) {
    audit->query = q.id;
    audit->demand = static_cast<std::uint32_t>(di);
    audit->dataset = n;
    audit->admitted = admitted;
    if (admitted) {
      audit->reason = obs::AuditReason::kAdmitted;
      audit->site = ch.site;
      audit->placed_replica = ch.needs_replica;
      audit->theta_term = state.theta[ch.site];
      audit->capacity_term = need * state.inv_avail[ch.site];
      audit->eta_term = kEtaWeight * row.dod[ch.candidate];
      audit->mu_term = ch.needs_replica ? mu_term : 0.0;
      audit->total_price = ch.price;
    } else {
      obs::RejectionClassifier why(state.budget_left);
      for (const SiteId l : row.site) {
        why.site(need <= (state.avail[l] - state.load[l]) + kCapacityEps,
                 state.replica[l] != 0);
      }
      audit->reason = why.reason();
    }
  }
  if (!admitted) return ch;
  if (ch.needs_replica) duals.raise_mu(q.id);
  duals.raise_theta(ch.site, need, state.avail[ch.site]);
  const double vol = inst.dataset(n).volume;
  const double tight =
      std::max(0.0, vol * (1.0 - q.rate * duals.theta(ch.site)));
  duals.set_y(q.id, std::max(duals.y(q.id), tight));
  return ch;
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
