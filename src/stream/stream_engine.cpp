#include "stream/stream_engine.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

#include "obs/causal_sink.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/prefetch.h"
#include "util/thread_pool.h"

namespace edgerep {

namespace {

/// Phase 1's lookahead over a shard's batch, in queries: the record, slot
/// offset and duals of the query this far ahead.
constexpr std::size_t kPhase1Ahead = 8;

/// Phase-2 replay of one shard intent against the live plan; returns the
/// conflict site, or kInvalidSite once the intent is committed.  Capacity
/// is checked for every placement first, against the plan's loads plus this
/// intent's earlier placements — the same `load += need` sequence the
/// assigns below run, so they cannot throw.  Each placement that fits counts
/// as a ledger reservation, and a conflict releases them all.
SiteId reconcile(const Instance& inst, const AdmissionIntent& intent,
                 ReplicaPlan& plan, StreamResult& res) {
  const Query& q = inst.query(intent.query);
  const std::vector<AdmissionIntent::Placement>& ps = intent.placements;
  auto need = [&](const AdmissionIntent::Placement& p) {
    return inst.dataset(p.dataset).volume * q.rate;
  };
  std::size_t reserved = 0;
  for (; reserved < ps.size(); ++reserved) {
    const SiteId s = ps[reserved].site;
    double load = plan.load(s);
    for (std::size_t j = 0; j < reserved; ++j) {
      if (ps[j].site == s) load += need(ps[j]);
    }
    if (!(need(ps[reserved]) <=
          (inst.site(s).available - load) + kCapacityEps)) {
      break;
    }
  }
  res.ledger_reserves += reserved;
  SiteId conflict = reserved < ps.size() ? ps[reserved].site : kInvalidSite;
  // Replica budget re-check against the live plan.  A placement the shard
  // thought was free-riding an existing replica may need a fresh one here
  // (the shard-local replica it saw belonged to a conflict loser), and vice
  // versa.  Demands of one query address distinct datasets, so counting
  // per-placement against the plan is exact.
  for (std::size_t i = 0; conflict == kInvalidSite && i < ps.size(); ++i) {
    if (!plan.has_replica(ps[i].dataset, ps[i].site) &&
        plan.replica_count(ps[i].dataset) >= inst.max_replicas()) {
      conflict = ps[i].site;
    }
  }
  if (conflict != kInvalidSite) {
    res.ledger_releases += reserved;
    return conflict;
  }
  for (const AdmissionIntent::Placement& p : ps) {
    if (!plan.has_replica(p.dataset, p.site)) {
      plan.place_replica(p.dataset, p.site);
    }
    plan.assign(intent.query, p.dataset, p.site);
  }
  return kInvalidSite;
}

void record_run_metrics(const StreamResult& res) {
  if (!obs::metrics_enabled()) return;
  // Per-kind counters move with their records (obs/causal_sink.h).
  static obs::Counter& runs = obs::metrics().counter(
      "edgerep_stream_runs_total", "run_stream invocations");
  runs.inc();
  obs::metrics()
      .gauge("edgerep_stream_ledger_reserves",
             "capacity reservations taken by the last streaming run")
      .set(static_cast<double>(res.ledger_reserves));
  obs::metrics()
      .gauge("edgerep_stream_ledger_releases",
             "capacity reservations released by the last streaming run")
      .set(static_cast<double>(res.ledger_releases));
  for (std::size_t sh = 0; sh < res.shard_stats.size(); ++sh) {
    const std::string suffix = "{shard=\"" + std::to_string(sh) + "\"}";
    obs::metrics()
        .gauge("edgerep_stream_shard_admitted" + suffix,
               "queries admitted per shard in the last streaming run")
        .set(static_cast<double>(res.shard_stats[sh].admitted));
    obs::metrics()
        .gauge("edgerep_stream_shard_conflicts" + suffix,
               "reconcile conflicts per shard in the last streaming run")
        .set(static_cast<double>(res.shard_stats[sh].conflicts));
  }
}

}  // namespace

StreamResult run_stream(const Instance& inst, std::span<const Arrival> stream,
                        const StreamOptions& opts) {
  EDGEREP_TRACE_SCOPE("stream.run");
  if (!inst.finalized()) {
    throw std::invalid_argument("run_stream: instance not finalized");
  }
  if (!(opts.epoch_length > 0.0)) {
    throw std::invalid_argument("run_stream: epoch_length must be > 0");
  }
  const std::size_t shards =
      std::max<std::size_t>(1, std::min(opts.shards, inst.sites().size()));

  const std::span<const Query> queries = inst.queries();
  const ShardMap map(inst, shards, opts.boundary);
  // One row source for every shard, filled before phase 1 and read-only
  // from then on.
  const RowSource rows(inst, opts.parallel);
  std::vector<ShardEngine> engines;
  engines.reserve(shards);
  for (std::uint32_t sh = 0; sh < shards; ++sh) {
    engines.emplace_back(inst, map, sh, rows);
  }

  // Causal steps go to one sink (obs/causal_sink.h), and only from the
  // serial sections of the loop, so the journal, alert stream, audit log
  // and counters are independent of thread count.
  obs::CausalSink sink(obs::Producer::kStream);
  using Kind = obs::RecordKind;
  const bool metrics_on = obs::metrics_enabled();  // reconcile wall time
  std::vector<std::uint32_t> side_batches(shards);
  std::vector<std::uint32_t> placed;  // an intent's datasets, for the sink

  StreamResult res{ReplicaPlan(inst), {}, 0, 0, 0, 0, 0, 0, 0, {}};
  res.shard_stats.resize(shards);
  std::vector<std::uint32_t> retries(inst.queries().size(), 0);

  std::vector<QueryId> requeued;
  std::vector<std::vector<QueryId>> shard_batch(shards);
  std::vector<std::vector<AdmissionIntent>> shard_intents(shards);
  std::vector<std::vector<QueryId>> shard_infeasible(shards);

  std::size_t cursor = 0;
  std::size_t epoch = 0;
  while (cursor < stream.size() || !requeued.empty()) {
    // Skip empty windows in O(1): jump to the epoch holding the next
    // arrival when nothing is queued for this one.
    if (requeued.empty() && cursor < stream.size()) {
      const auto next = static_cast<std::size_t>(
          std::floor(stream[cursor].time / opts.epoch_length));
      epoch = std::max(epoch, next);
    }
    const double window_end =
        static_cast<double>(epoch + 1) * opts.epoch_length;

    // Batch: re-queued losers first (their arrival preceded this window),
    // then this window's arrivals, routed in order.
    for (auto& b : shard_batch) b.clear();
    for (const QueryId m : requeued) {
      const std::uint32_t sh = map.shard_of_query(inst.query(m));
      shard_batch[sh].push_back(m);
      ++res.shard_stats[sh].routed;
    }
    requeued.clear();
    while (cursor < stream.size() && stream[cursor].time < window_end) {
      const QueryId m = stream[cursor].query;
      const std::uint32_t sh = map.shard_of_query(inst.query(m));
      shard_batch[sh].push_back(m);
      ++res.shard_stats[sh].routed;
      ++cursor;
    }

    if (sink.on()) {
      std::size_t batch = 0;
      for (std::size_t sh = 0; sh < shards; ++sh) {
        side_batches[sh] = static_cast<std::uint32_t>(shard_batch[sh].size());
        batch += shard_batch[sh].size();
      }
      sink.emit(Kind::kEpochBegin,
                {.time = static_cast<double>(epoch) * opts.epoch_length,
                 .v0 = window_end,
                 .a = static_cast<std::uint32_t>(batch),
                 .b = static_cast<std::uint32_t>(epoch)},
                {.batches = side_batches, .window = opts.epoch_length});
    }

    // Phase 1: parallel per-shard admission against the frozen plan.
    {
      EDGEREP_TRACE_SCOPE("stream.phase1");
      auto run_shard = [&](std::size_t sh) {
        ShardEngine& eng = engines[sh];
        eng.begin_epoch(res.plan);
        auto& intents = shard_intents[sh];
        auto& infeasible = shard_infeasible[sh];
        intents.clear();
        infeasible.clear();
        const std::vector<QueryId>& batch = shard_batch[sh];
        for (std::size_t i = 0; i < batch.size(); ++i) {
          // Ask for a later query's record, slot offset and duals, and for
          // the next query's walk lengths and the head of its home's list.
          if (i + kPhase1Ahead < batch.size()) {
            const QueryId m_far = batch[i + kPhase1Ahead];
            prefetch_object(queries[m_far]);
            rows.prefetch_offset(m_far);
            eng.duals().prefetch(m_far);
          }
          if (i + 1 < batch.size()) {
            const Query& next = queries[batch[i + 1]];
            prefetch_lines(next.demands.data(), next.demands.size(), 2);
            rows.prefetch_walks(next.id);
            rows.prefetch_list(next.home);
          }
          const QueryId m = batch[i];
          AdmissionIntent intent;
          if (eng.admit(queries[m], intent)) {
            intents.push_back(std::move(intent));
          } else {
            infeasible.push_back(m);
          }
        }
      };
      if (opts.parallel && shards > 1) {
        global_pool().parallel_for(shards, run_shard);
      } else {
        for (std::size_t sh = 0; sh < shards; ++sh) run_shard(sh);
      }
    }

    // Phase 2: serial reconciliation in (shard id, intent order).
    {
      EDGEREP_TRACE_SCOPE("stream.reconcile");
      const std::uint64_t reconcile_t0 = metrics_on ? obs::now_ns() : 0;
      // One reconciliation step of query m; commits and re-queues name the
      // intent's datasets.
      const auto step = [&](Kind kind, QueryId m, std::size_t sh,
                            std::size_t arg, SiteId site = obs::kNoSite,
                            const AdmissionIntent* intent = nullptr) {
        if (!sink.on()) return;
        placed.clear();
        if (intent != nullptr) {
          for (const auto& p : intent->placements) placed.push_back(p.dataset);
        }
        const auto arg8 =
            static_cast<std::uint8_t>(std::min<std::size_t>(arg, 0xff));
        sink.emit(kind,
                  {.time = window_end,
                   .a = m,
                   .b = static_cast<std::uint32_t>(sh),
                   .site = site,
                   .arg = arg8},
                  {.datasets = placed});
      };
      for (std::size_t sh = 0; sh < shards; ++sh) {
        for (const AdmissionIntent& intent : shard_intents[sh]) {
          const QueryId m = intent.query;
          step(Kind::kIntent, m, sh, intent.placements.size());
          const SiteId conflict_site = reconcile(inst, intent, res.plan, res);
          if (conflict_site == kInvalidSite) {
            ++res.queries_admitted;
            ++res.shard_stats[sh].admitted;
            step(Kind::kCommit, m, sh, 0, obs::kNoSite, &intent);
            continue;
          }
          ++res.conflicts;
          ++res.shard_stats[sh].conflicts;
          step(Kind::kConflict, m, sh, 0, conflict_site);
          if (retries[m] < opts.max_requeues) {
            ++retries[m];
            ++res.requeues;
            requeued.push_back(m);
            step(Kind::kRequeue, m, sh, retries[m], obs::kNoSite, &intent);
          } else {
            ++res.queries_rejected;
            step(Kind::kStreamReject, m, sh, 2);  // requeue budget spent
          }
        }
        // Phase-1 infeasibility is terminal: load and θ only grow over the
        // stream, so the same shard can never admit the query later.
        res.queries_rejected += shard_infeasible[sh].size();
        res.shard_stats[sh].infeasible += shard_infeasible[sh].size();
        for (const QueryId m : shard_infeasible[sh]) {
          step(Kind::kStreamReject, m, sh, 0);  // phase-1 infeasible
        }
      }
      if (metrics_on) {
        static obs::Counter& reconcile_ns_total = obs::metrics().counter(
            "edgerep_stream_reconcile_ns_total",
            "wall time spent in serial phase-2 reconciliation");
        reconcile_ns_total.inc(obs::now_ns() - reconcile_t0);
      }
    }
    ++res.epochs;
    ++epoch;
  }

  sink.finish();
  res.metrics = evaluate(res.plan);
  record_run_metrics(res);
  return res;
}

}  // namespace edgerep
