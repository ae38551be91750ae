#include "core/candidate_index.h"

#include <numeric>
#include <span>
#include <type_traits>

#include "core/row_source.h"
#include "util/prefetch.h"
#include "util/thread_pool.h"

namespace edgerep {

namespace {

/// Lookahead distances of the build's sweep over a home's queries, in
/// queries: the record and slot offset, then the demand list, walk lengths
/// and slots, then (filling) the output lines of `kOutLines` each.
constexpr std::size_t kSweepFar = 8;
constexpr std::size_t kSweepNear = 4;
constexpr std::size_t kSweepOut = 2;
constexpr std::size_t kOutLines = 4;

}  // namespace

CandidateIndex::CandidateIndex(const Instance& inst, bool parallel)
    : avail_(inst) {
  // The source lives for the build only: its lists are not needed after.
  const RowSource rows(inst, parallel);
  const auto queries = inst.queries();
  const std::size_t n_sites = inst.sites().size();

  std::vector<SiteId> all(n_sites);
  std::iota(all.begin(), all.end(), SiteId{0});
  query_offset_.assign(rows.offsets().begin(), rows.offsets().end());
  const std::size_t slots = query_offset_.back();
  need_.resize(slots);
  slot_begin_.assign(slots + 1, 0);

  SiteId* site_out = nullptr;
  double* dod_out = nullptr;

  // One visit of every demand, home by home: a home's demands share its
  // list, and its scanning demands share one gathered column of delays to
  // it instead of each reading a strided column of the site-rows table.
  // The count pass (kFill false) stores row lengths one slot up; the fill
  // pass writes each row at its offset.  A row is a pure function of its
  // slot, so any split of the homes into blocks, and so any thread count,
  // builds the same arrays.
  const auto sweep = [&](auto fill) {
    constexpr bool kFill = decltype(fill)::value;
    const auto block = [&](std::size_t begin, std::size_t end) {
      RowSource::Scratch scratch(n_sites);
      std::vector<double> column(n_sites);
      for (std::size_t h = begin; h < end; ++h) {
        const auto home = static_cast<SiteId>(h);
        bool gathered = false;
        const std::span<const QueryId> homed = rows.homed(home);
        for (std::size_t i = 0; i < homed.size(); ++i) {
          // A home's queries are spread over the id range: ask for the
          // next ones' records and offsets, then their walk lengths and
          // slots, then (filling) their output lines.
          if (i + kSweepFar < homed.size()) {
            const QueryId m_far = homed[i + kSweepFar];
            prefetch_object(queries[m_far]);
            rows.prefetch_offset(m_far);
          }
          if (i + kSweepNear < homed.size()) {
            const QueryId m_near = homed[i + kSweepNear];
            const std::vector<DatasetDemand>& demands = queries[m_near].demands;
            prefetch_lines(demands.data(), demands.size(), 2);
            rows.prefetch_walks(m_near);
            const std::size_t first = rows.offsets()[m_near];
            if constexpr (kFill) {
              prefetch(&slot_begin_[first]);
            } else {  // a query has at least one demand: first < slots
              prefetch_write(&need_[first]);
              prefetch_write(&slot_begin_[first + 1]);
            }
          }
          if constexpr (kFill) {
            if (i + kSweepOut < homed.size()) {
              const QueryId m_out = homed[i + kSweepOut];
              const std::size_t b = slot_begin_[rows.offsets()[m_out]];
              const std::size_t n =
                  slot_begin_[rows.offsets()[m_out + 1]] - b;
              prefetch_lines<true>(site_out + b, n, kOutLines);
              prefetch_lines<true>(dod_out + b, n, kOutLines);
            }
          }
          const QueryId m = homed[i];
          const Query& q = queries[m];
          for (std::size_t di = 0; di < q.demands.size(); ++di) {
            const std::size_t slot = rows.slot(m, di);
            if (!gathered && !rows.walks(slot)) {
              for (std::size_t s = 0; s < n_sites; ++s) {
                column[s] = inst.path_delay(static_cast<SiteId>(s), home);
              }
              gathered = true;
            }
            if constexpr (!kFill) {
              need_[slot] =
                  inst.dataset(q.demands[di].dataset).volume * q.rate;
            }
            std::size_t k = kFill ? slot_begin_[slot] : 0;
            rows.row(
                q, di, all, [](SiteId) { return true; },
                [&](SiteId l) { return column[l]; }, scratch,
                [&](SiteId l, double delay) {
                  if constexpr (kFill) {
                    site_out[k] = l;
                    dod_out[k] = delay / q.deadline;
                  }
                  ++k;
                });
            if constexpr (kFill) {
              assert(k == slot_begin_[slot + 1]);
            } else {
              slot_begin_[slot + 1] = k;
            }
          }
        }
      }
    };
    if (parallel && queries.size() * n_sites > kPooledBuildThreshold) {
      global_pool().parallel_for_blocked(n_sites, block);
    } else {
      block(0, n_sites);
    }
  };

  sweep(std::false_type{});
  std::partial_sum(slot_begin_.begin(), slot_begin_.end(),
                   slot_begin_.begin());
  const std::size_t total = slot_begin_[slots];
  soa_site_ = std::make_unique_for_overwrite<SiteId[]>(total);
  soa_dod_ = std::make_unique_for_overwrite<double[]>(total);
  site_out = soa_site_.get();
  dod_out = soa_dod_.get();
  sweep(std::true_type{});
}

}  // namespace edgerep
