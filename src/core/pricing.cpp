#include "core/pricing.h"

#include <algorithm>
#include <limits>

// x86 SIMD paths.  The intrinsics live behind GCC/Clang `target` attributes
// so the translation unit still compiles with baseline flags; the dispatch
// below probes the CPU once at runtime and falls back to the portable loop.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define EDGEREP_PRICING_X86 1
#else
#define EDGEREP_PRICING_X86 0
#endif

namespace edgerep {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The portable branch-light scan over candidates [begin, end), updating the
/// running argmin.  Also serves as the tail loop of the SIMD paths: indices
/// past `begin` are larger than any SIMD-scanned index, so the strict `<`
/// keeps first-wins tie-breaking intact.
inline void portable_scan(const SiteId* sites, const double* dod,
                          const double* theta, const double* inv,
                          const double* avail, const double* load,
                          const std::uint8_t* replica, double budget,
                          double need, double eta_weight, double mu_term,
                          std::size_t begin, std::size_t end,
                          double& best_price, std::size_t& best_i) {
  for (std::size_t i = begin; i < end; ++i) {
    const SiteId s = sites[i];
    const double has = static_cast<double>(replica[s]);
    // Same FP sequence as the reference walk: θ + need·inv + η·dod, then a
    // conditional μ surcharge.  `has` selects between +μ and +0.0; adding
    // 0.0 to a non-negative finite price keeps its bits, so the branchy
    // `if (!has) p += μ` and this select agree exactly.
    double p = theta[s] + need * inv[s] + eta_weight * dod[i];
    p += (has != 0.0) ? 0.0 : mu_term;
    // Feasibility mask: (replica already there OR budget left) AND capacity
    // fits.  The comparison mirrors ReplicaPlan::fits bit-exactly.
    const bool allowed = (has != 0.0) || (budget != 0.0);
    const bool fits = need <= (avail[s] - load[s]) + kCapacityEps;
    // Infeasible candidates price at +inf, which strict `<` never selects.
    p = (allowed && fits) ? p : kInf;
    if (p < best_price) {
      best_price = p;
      best_i = i;
    }
  }
}

#if EDGEREP_PRICING_X86

/// 4-wide AVX2 scan.  Each lane executes exactly the portable per-candidate
/// FP sequence (vector add/mul/sub are per-lane IEEE operations and
/// intrinsics are never fused into FMA), so prices stay bit-identical.  The
/// running argmin keeps per-lane (price, index) pairs — within a lane,
/// strict `<` preserves the earliest index; across lanes the horizontal
/// reduction prefers the smaller index on exact price ties, which together
/// reproduce the scalar first-wins order.
__attribute__((target("avx2"))) void avx2_scan(
    const SiteId* sites, const double* dod, const double* theta,
    const double* inv, const double* avail, const double* load,
    const std::uint8_t* replica, double budget, double need,
    double eta_weight, double mu_term, std::size_t n, double& best_price,
    std::size_t& best_i) {
  const __m256d vneed = _mm256_set1_pd(need);
  const __m256d veta = _mm256_set1_pd(eta_weight);
  const __m256d vmu = _mm256_set1_pd(mu_term);
  const __m256d veps = _mm256_set1_pd(kCapacityEps);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vinf = _mm256_set1_pd(kInf);
  const __m256d vall = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d mbudget =
      _mm256_cmp_pd(_mm256_set1_pd(budget), vzero, _CMP_NEQ_OQ);

  __m256d vbest = vinf;
  __m256d vbesti = _mm256_set1_pd(-1.0);
  __m256d vcuri = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
  const __m256d vstep = _mm256_set1_pd(4.0);

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i vsite =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sites + i));
    // Masked gathers with an all-ones mask load every lane exactly like
    // the unmasked form, but start from a defined source register.
    const __m256d vth = _mm256_mask_i32gather_pd(vzero, theta, vsite, vall, 8);
    const __m256d vinv = _mm256_mask_i32gather_pd(vzero, inv, vsite, vall, 8);
    const __m256d vav = _mm256_mask_i32gather_pd(vzero, avail, vsite, vall, 8);
    const __m256d vld = _mm256_mask_i32gather_pd(vzero, load, vsite, vall, 8);
    const __m256d vhas = _mm256_set_pd(
        static_cast<double>(replica[sites[i + 3]]),
        static_cast<double>(replica[sites[i + 2]]),
        static_cast<double>(replica[sites[i + 1]]),
        static_cast<double>(replica[sites[i]]));
    const __m256d vdod = _mm256_loadu_pd(dod + i);

    __m256d p = _mm256_add_pd(
        _mm256_add_pd(vth, _mm256_mul_pd(vneed, vinv)),
        _mm256_mul_pd(veta, vdod));
    const __m256d mhas = _mm256_cmp_pd(vhas, vzero, _CMP_NEQ_OQ);
    p = _mm256_add_pd(p, _mm256_blendv_pd(vmu, vzero, mhas));
    const __m256d resid = _mm256_add_pd(_mm256_sub_pd(vav, vld), veps);
    const __m256d mok = _mm256_and_pd(
        _mm256_or_pd(mhas, mbudget), _mm256_cmp_pd(vneed, resid, _CMP_LE_OQ));
    p = _mm256_blendv_pd(vinf, p, mok);

    const __m256d mlt = _mm256_cmp_pd(p, vbest, _CMP_LT_OQ);
    vbest = _mm256_blendv_pd(vbest, p, mlt);
    vbesti = _mm256_blendv_pd(vbesti, vcuri, mlt);
    vcuri = _mm256_add_pd(vcuri, vstep);
  }

  alignas(32) double lane_price[4];
  alignas(32) double lane_index[4];
  _mm256_store_pd(lane_price, vbest);
  _mm256_store_pd(lane_index, vbesti);
  for (int k = 0; k < 4; ++k) {
    if (lane_price[k] < best_price ||
        (lane_price[k] == best_price && best_price < kInf &&
         lane_index[k] < static_cast<double>(best_i))) {
      best_price = lane_price[k];
      best_i = static_cast<std::size_t>(lane_index[k]);
    }
  }
  portable_scan(sites, dod, theta, inv, avail, load, replica, budget, need,
                eta_weight, mu_term, i, n, best_price, best_i);
}

bool cpu_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

#endif  // EDGEREP_PRICING_X86

}  // namespace

SiteAvailability::SiteAvailability(const Instance& inst,
                                   const std::function<double(SiteId)>& scale)
    : avail_(inst.sites().size()), inv_(inst.sites().size()) {
  for (const Site& s : inst.sites()) {
    avail_[s.id] = scale ? s.available * scale(s.id) : s.available;
    inv_[s.id] = 1.0 / std::max(avail_[s.id], 1e-12);
  }
}

PricedChoice price_candidates(const CandidateSoA& soa,
                              const PricingState& state, double need,
                              double eta_weight, double mu_term) {
  const std::size_t n = soa.size();
  const SiteId* const sites = soa.site.data();
  const double* const dod = soa.dod.data();
  const double* const theta = state.theta.data();
  const double* const inv = state.inv_avail.data();
  const double* const avail = state.avail.data();
  const double* const load = state.load.data();
  const std::uint8_t* const replica = state.replica.data();
  const double budget = state.budget_left ? 1.0 : 0.0;

  PricedChoice best;
  double best_price = kInf;
  std::size_t best_i = PricedChoice::kNoCandidate;
#if EDGEREP_PRICING_X86
  if (n >= 8 && cpu_has_avx2()) {
    avx2_scan(sites, dod, theta, inv, avail, load, replica, budget, need,
              eta_weight, mu_term, n, best_price, best_i);
  } else {
    portable_scan(sites, dod, theta, inv, avail, load, replica, budget, need,
                  eta_weight, mu_term, 0, n, best_price, best_i);
  }
#else
  portable_scan(sites, dod, theta, inv, avail, load, replica, budget, need,
                eta_weight, mu_term, 0, n, best_price, best_i);
#endif
  if (best_i != PricedChoice::kNoCandidate) {
    const SiteId s = sites[best_i];
    best.candidate = best_i;
    best.site = s;
    best.price = best_price;
    best.needs_replica = replica[s] == 0;
  }
  return best;
}

PricedChoice price_candidates_reference(const CandidateSoA& soa,
                                        const ReferencePricingState& state,
                                        double need, double eta_weight,
                                        double mu_term) {
  const std::size_t n = soa.size();
  PricedChoice best;
  double best_price = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const SiteId s = soa.site[i];
    // ReplicaPlan::has_replica is a linear scan of the dataset's replica
    // list — reproduced verbatim; this is what the byte mask replaces.
    bool has = false;
    for (const SiteId r : state.replicas) {
      if (r == s) {
        has = true;
        break;
      }
    }
    if (!has && !state.budget_left) continue;
    if (!(need <= (state.avail[s] - state.load[s]) + kCapacityEps)) continue;
    double p = state.theta[s] + need * state.inv_avail[s] +
               eta_weight * soa.dod[i];
    if (!has) p += mu_term;
    if (p < best_price) {
      best_price = p;
      best.candidate = i;
      best.site = s;
      best.price = p;
      best.needs_replica = !has;
    }
  }
  return best;
}

}  // namespace edgerep
