// Postmortem analyzer contracts over real journals:
//
//  * a fixed faulted online config yields a byte-identical journal across
//    repeated runs, equal to its golden (tests/golden/table_faulted.journal);
//  * the analyzer reproduces OnlineResult's deadline-SLO rollup bit-exactly
//    from the journal alone (hit counts, ratio, percentiles, per-site rows);
//  * each admitted query's wait/transfer/compute decomposition sums to its
//    response time;
//  * journal diff pinpoints a perturbed record;
//  * a stream journal's per-epoch stats reconcile with StreamResult.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "helpers/fixtures.h"
#include "helpers/golden.h"
#include "obs/obs.h"
#include "obs/postmortem.h"
#include "obs/recorder.h"
#include "obs/watchdog.h"
#include "sim/online.h"
#include "stream/stream_engine.h"
#include "workload/arrival_gen.h"
#include "workload/fault_gen.h"

namespace edgerep {
namespace {

class PostmortemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_all_enabled(false);
    obs::set_recorder_enabled(false);
    obs::recorder().configure(obs::RecorderMode::kFull);
  }
  void TearDown() override { obs::init_from_env(); }

  static OnlineConfig faulted_config(const Instance& inst) {
    FaultScenarioConfig fcfg;
    fcfg.horizon = 10.0;
    fcfg.site_crashes = 2;
    fcfg.capacity_losses = 1;
    fcfg.mean_repair_time = 4.0;
    OnlineConfig cfg;
    cfg.seed = 0x5e55;
    cfg.faults = generate_fault_trace(inst, fcfg, 29);
    return cfg;
  }

  /// Run with the recorder on and return (result, serialized journal).
  static std::pair<OnlineResult, std::string> record_run(
      const Instance& inst, const OnlineConfig& cfg) {
    obs::recorder().configure(obs::RecorderMode::kFull);
    obs::set_recorder_enabled(true);
    OnlineResult res = run_online(inst, cfg);
    obs::set_recorder_enabled(false);
    std::ostringstream os;
    obs::recorder().write(os);
    return {std::move(res), os.str()};
  }

  static obs::Journal parse(const std::string& bytes) {
    std::istringstream is(bytes);
    obs::Journal journal;
    std::string err;
    EXPECT_TRUE(obs::read_journal(is, &journal, &err)) << err;
    return journal;
  }
};

TEST_F(PostmortemTest, JournalsAreByteIdenticalAcrossRunsAndKernels) {
  const Instance inst = testing::medium_instance(11, /*f_max=*/3);
  const OnlineConfig cfg = faulted_config(inst);
  const auto [r1, journal] = record_run(inst, cfg);
  const auto [r2, again] = record_run(inst, cfg);
  EXPECT_GT(journal.size(), sizeof(obs::JournalHeader));
  EXPECT_EQ(journal, again) << "journal is not reproducible";
  testing::expect_golden_bytes("table_faulted.journal", journal);
  testing::expect_golden("online/faulted_medium11", testing::online_fp(r1));
}

TEST_F(PostmortemTest, SloRollupIsReproducedBitExactlyFromTheJournal) {
  for (const std::uint64_t seed : {11u, 23u}) {
    const Instance inst = testing::medium_instance(seed, /*f_max=*/3);
    const OnlineConfig cfg = faulted_config(inst);
    const auto [res, bytes] = record_run(inst, cfg);
    const obs::PostmortemReport report = analyze_journal(parse(bytes));

    EXPECT_EQ(report.arrivals, inst.queries().size());
    EXPECT_EQ(report.admitted, res.admitted_queries);
    EXPECT_EQ(report.failed_by_fault, res.queries_failed_by_fault);
    EXPECT_EQ(report.relocations, res.demands_relocated);
    EXPECT_EQ(report.fault_events, res.fault_events_applied);

    // The rollup itself, raw double bits — no tolerance.
    EXPECT_EQ(report.slo.admitted_queries, res.slo.admitted_queries);
    EXPECT_EQ(report.slo.deadline_hits, res.slo.deadline_hits);
    EXPECT_EQ(report.slo.hit_ratio, res.slo.hit_ratio);
    EXPECT_EQ(report.slo.p50_slack, res.slo.p50_slack);
    EXPECT_EQ(report.slo.p95_slack, res.slo.p95_slack);
    EXPECT_EQ(report.slo.p99_slack, res.slo.p99_slack);
    ASSERT_EQ(report.slo.per_site.size(), res.slo.per_site.size());
    for (std::size_t i = 0; i < res.slo.per_site.size(); ++i) {
      EXPECT_EQ(report.slo.per_site[i].site, res.slo.per_site[i].site);
      EXPECT_EQ(report.slo.per_site[i].demands, res.slo.per_site[i].demands);
      EXPECT_EQ(report.slo.per_site[i].deadline_hits,
                res.slo.per_site[i].deadline_hits);
      EXPECT_EQ(report.slo.per_site[i].p50_slack,
                res.slo.per_site[i].p50_slack);
      EXPECT_EQ(report.slo.per_site[i].p95_slack,
                res.slo.per_site[i].p95_slack);
      EXPECT_EQ(report.slo.per_site[i].p99_slack,
                res.slo.per_site[i].p99_slack);
    }
  }
}

TEST_F(PostmortemTest, TimelinesDecomposeResponseTimeExactly) {
  const Instance inst = testing::medium_instance(7, /*f_max=*/3);
  const OnlineConfig cfg = faulted_config(inst);
  const auto [res, bytes] = record_run(inst, cfg);
  const obs::PostmortemReport report = analyze_journal(parse(bytes));

  std::size_t admitted = 0;
  std::size_t breached = 0;
  for (const obs::QueryTimeline& tl : report.timelines) {
    if (!tl.admitted) continue;
    ++admitted;
    // wait + transfer + compute spans arrival → completion along the
    // critical demand (associativity differences only, hence DOUBLE_EQ).
    EXPECT_DOUBLE_EQ(tl.wait + tl.transfer + tl.compute,
                     tl.completion - tl.arrival)
        << "query " << tl.query;
    EXPECT_GE(tl.transfer, 0.0);
    EXPECT_GE(tl.compute, 0.0);
    EXPECT_EQ(tl.slack, tl.deadline - (tl.completion - tl.arrival));
    EXPECT_NE(tl.critical_site, obs::kNoSite);
    EXPECT_LT(tl.critical_demand, tl.n_demands);
    if (tl.slack < -1e-9) ++breached;
    // The outcome array agrees with the reconstruction.
    EXPECT_EQ(res.outcomes[tl.query].admitted, tl.admitted);
    EXPECT_EQ(res.outcomes[tl.query].arrival_time, tl.arrival);
    EXPECT_EQ(res.outcomes[tl.query].completion_time, tl.completion);
  }
  EXPECT_EQ(admitted, res.admitted_queries);

  // Breach attribution buckets partition the breached queries.
  auto bucket_sum = [](const std::vector<obs::BreachBucket>& buckets) {
    std::size_t n = 0;
    for (const obs::BreachBucket& b : buckets) n += b.breaches;
    return n;
  };
  EXPECT_EQ(bucket_sum(report.by_site), breached);
  EXPECT_EQ(bucket_sum(report.by_dataset), breached);
  EXPECT_EQ(bucket_sum(report.by_role), breached);
  std::size_t served = 0;
  for (const obs::BreachBucket& b : report.by_site) {
    served += b.served;
    EXPECT_LE(b.breaches, b.served);
    EXPECT_GE(b.total_overrun, 0.0);
  }
  EXPECT_EQ(served, res.admitted_queries);
}

TEST_F(PostmortemTest, DiffPinpointsAPerturbedRecord) {
  const Instance inst = testing::medium_instance(11, /*f_max=*/3);
  const OnlineConfig cfg = faulted_config(inst);
  const auto [res, bytes] = record_run(inst, cfg);
  const obs::Journal lhs = parse(bytes);

  obs::Journal rhs = lhs;
  ASSERT_GT(rhs.records.size(), 10u);
  const std::size_t victim = rhs.records.size() / 2;
  rhs.records[victim].v0 += 1e-9;  // a single-ULP-ish causal nudge

  const obs::JournalDiff same = obs::diff_journals(lhs, lhs);
  EXPECT_TRUE(same.identical);
  EXPECT_FALSE(same.has_divergence);

  const obs::JournalDiff diff = obs::diff_journals(lhs, rhs);
  EXPECT_FALSE(diff.identical);
  ASSERT_TRUE(diff.has_divergence);
  EXPECT_EQ(diff.first_divergence, victim);
  EXPECT_EQ(std::memcmp(&diff.lhs, &lhs.records[victim], sizeof(diff.lhs)),
            0);

  // Truncation diverges at the shorter length.
  obs::Journal prefix = lhs;
  prefix.records.resize(victim);
  prefix.header.retained = victim;
  const obs::JournalDiff trunc = obs::diff_journals(lhs, prefix);
  EXPECT_FALSE(trunc.identical);
  ASSERT_TRUE(trunc.has_divergence);
  EXPECT_EQ(trunc.first_divergence, victim);
}

TEST_F(PostmortemTest, StreamJournalReconcilesWithStreamResult) {
  const Instance inst = testing::medium_instance(13, /*f_max=*/3);
  const std::vector<Arrival> stream =
      generate_arrival_stream(inst, 200.0, 0x57e4);
  StreamOptions opts;
  opts.shards = 4;
  opts.epoch_length = 0.05;

  obs::recorder().configure(obs::RecorderMode::kFull);
  obs::set_recorder_enabled(true);
  const StreamResult res = run_stream(inst, stream, opts);
  obs::set_recorder_enabled(false);
  std::ostringstream os;
  obs::recorder().write(os);
  const obs::Journal journal = parse(os.str());
  const obs::PostmortemReport report = analyze_journal(journal);

  // Re-queues and stream rejections name no site (site 0 is a real one).
  std::size_t siteless = 0;
  for (const obs::JournalRecord& r : journal.records) {
    const auto kind = static_cast<obs::RecordKind>(r.kind);
    if (kind != obs::RecordKind::kRequeue &&
        kind != obs::RecordKind::kStreamReject) {
      continue;
    }
    EXPECT_EQ(r.site, obs::kNoSite) << obs::to_string(kind);
    ++siteless;
  }
  EXPECT_EQ(siteless, res.requeues + res.queries_rejected);

  EXPECT_EQ(report.epochs.size(), res.epochs);
  EXPECT_EQ(report.stream_commits, res.queries_admitted);
  EXPECT_EQ(report.stream_conflicts, res.conflicts);
  EXPECT_EQ(report.stream_requeues, res.requeues);
  EXPECT_EQ(report.stream_rejects, res.queries_rejected);
  std::size_t batch_total = 0;
  for (const obs::EpochStats& e : report.epochs) {
    batch_total += e.batch;
    EXPECT_EQ(e.intents, e.commits + e.conflicts);
    EXPECT_LE(e.requeues, e.conflicts);
  }
  // Every arrival is routed once, plus one re-route per requeue.
  EXPECT_EQ(batch_total, stream.size() + res.requeues);
}

// A contended --network=flow journal: the analyzer must fold the
// flow_rate_change records into its replay — retirements override the
// table-priced completions, so the reconstructed timelines, SLO rollup and
// bottleneck-link attribution all reflect the stretched reality.
TEST_F(PostmortemTest, FlowJournalReplaysStretchedCompletions) {
  const Instance inst = testing::medium_instance(11, /*f_max=*/3);
  OnlineConfig cfg;
  cfg.seed = 0x5e55;
  cfg.arrival_rate = 4.0;
  cfg.network = OnlineNetwork::kFlow;
  cfg.oversubscription = 64.0;  // scarce links: flows stretch
  const auto [res, bytes] = record_run(inst, cfg);
  testing::expect_golden("flow/contended_medium11", testing::flow_fp(res));
  ASSERT_GT(res.flow_gap.flows_routed, 0u);
  ASSERT_GT(res.flow_gap.max_stretch, 0.0);
  const obs::PostmortemReport report = analyze_journal(parse(bytes));

  // Flow accounting reconciles with the run's own gap stats.  Without
  // faults no flow is ever cancelled, so every routed flow retires.
  EXPECT_EQ(report.flow_rate_changes, res.flow_gap.rate_changes);
  EXPECT_EQ(report.flow_retirements, res.flow_gap.flows_routed);
  EXPECT_GT(report.flow_stretched, 0u);

  // Reconstructed completions equal the stretched outcomes bit-exactly —
  // the retirement override, not the table price, wins.
  for (const obs::QueryTimeline& tl : report.timelines) {
    if (!tl.admitted) continue;
    EXPECT_EQ(res.outcomes[tl.query].completion_time, tl.completion)
        << "query " << tl.query;
    EXPECT_DOUBLE_EQ(tl.wait + tl.transfer + tl.compute,
                     tl.completion - tl.arrival);
  }
  EXPECT_EQ(report.slo.deadline_hits, res.slo.deadline_hits);
  EXPECT_EQ(report.slo.hit_ratio, res.slo.hit_ratio);
  EXPECT_EQ(report.slo.p95_slack, res.slo.p95_slack);

  // Link attribution only ever blames real links, and never counts more
  // breaches than queries it has seen.
  std::size_t link_breaches = 0;
  std::size_t breached = 0;
  for (const obs::QueryTimeline& tl : report.timelines) {
    if (tl.admitted && tl.slack < -1e-9) ++breached;
  }
  for (const obs::BreachBucket& b : report.by_link) {
    EXPECT_NE(b.key, obs::kNoLink);
    EXPECT_LE(b.breaches, b.served);
    link_breaches += b.breaches;
  }
  EXPECT_LE(link_breaches, breached);

  // The writers surface the flow section.
  std::ostringstream text;
  obs::write_report_text(text, report, 5);
  EXPECT_NE(text.str().find("flow backend:"), std::string::npos);
  std::ostringstream json;
  obs::write_report_json(json, report, 5);
  EXPECT_NE(json.str().find("\"flow\""), std::string::npos);
  EXPECT_NE(json.str().find("\"rate_changes\""), std::string::npos);
}

// Table-mode journals have no flow records: the flow section stays zero
// and no by_link buckets appear.
TEST_F(PostmortemTest, TableJournalHasEmptyFlowSection) {
  const Instance inst = testing::medium_instance(11, /*f_max=*/3);
  const OnlineConfig cfg = faulted_config(inst);
  const auto [res, bytes] = record_run(inst, cfg);
  const obs::PostmortemReport report = analyze_journal(parse(bytes));
  EXPECT_EQ(report.flow_rate_changes, 0u);
  EXPECT_EQ(report.flow_retirements, 0u);
  EXPECT_EQ(report.flow_stretched, 0u);
  EXPECT_TRUE(report.by_link.empty());
  for (const obs::QueryTimeline& tl : report.timelines) {
    EXPECT_EQ(tl.critical_link, obs::kNoLink);
  }
}

// Hostile journals: the reader and the analyzer must return a clean error
// or a bounded report, never size an allocation from a claimed count or id.
std::string from_hex(const std::string& hex) {
  std::string bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

// magic "EDGEREPJ", version 1, record size 40, then appended / retained /
// dropped as little-endian u64, then mode + padding.
constexpr const char* kHeaderPrefix = "454447455245504a0100000028000000";

TEST_F(PostmortemTest, HostileRetainedCountFailsCleanly) {
  // A bare 48-byte header claiming 2^60 retained records.
  const std::string bytes = from_hex(
      std::string(kHeaderPrefix) + "0000000000000010" + "0000000000000010" +
      "0000000000000000" + "0000000000000000");
  ASSERT_EQ(bytes.size(), sizeof(obs::JournalHeader));
  std::istringstream is(bytes);
  obs::Journal journal;
  std::string err;
  EXPECT_FALSE(obs::read_journal(is, &journal, &err));
  EXPECT_EQ(err, "journal truncated mid-records");
  EXPECT_TRUE(journal.records.empty());
}

TEST_F(PostmortemTest, HostileArrivalIdIsAnOrphan) {
  // One appended record: a kArrival whose query id 0xFFFFFFF0 lies far
  // beyond the header's appended count.
  const std::string bytes = from_hex(
      std::string(kHeaderPrefix) + "0100000000000000" + "0100000000000000" +
      "0000000000000000" + "0000000000000000" +
      "0000000000000000" + "000000000000f03f" + "0000000000000000" +
      "f0ffffff" + "01000000" + "ffffffff" + "00" + "00" + "0000");
  ASSERT_EQ(bytes.size(),
            sizeof(obs::JournalHeader) + sizeof(obs::JournalRecord));
  const obs::Journal journal = parse(bytes);
  ASSERT_EQ(journal.records.size(), 1u);
  const obs::PostmortemReport report = obs::analyze_journal(journal);
  EXPECT_EQ(report.arrivals, 0u);
  EXPECT_TRUE(report.timelines.empty());
}

TEST_F(PostmortemTest, HostileDuplicateArrivalIsAnOrphan) {
  // Query 0 arrives at t=0 with deadline 1 and finishes at 0.5; a second
  // arrival of the same id at t=5 must neither restart its timeline nor
  // count as an arrival.
  obs::Recorder rec;
  rec.configure(obs::RecorderMode::kFull);
  obs::JournalRecord r;
  r.time = 0.0;
  r.v0 = 1.0;  // deadline
  r.a = 0;
  r.b = 1;
  r.kind = static_cast<std::uint8_t>(obs::RecordKind::kArrival);
  rec.append(r);
  r = obs::JournalRecord{};
  r.v0 = 0.5;  // total delay
  r.a = 0;
  r.site = 1;
  r.kind = static_cast<std::uint8_t>(obs::RecordKind::kTransferStart);
  rec.append(r);
  r = obs::JournalRecord{};
  r.time = 5.0;
  r.v0 = 1.0;
  r.a = 0;
  r.b = 1;
  r.kind = static_cast<std::uint8_t>(obs::RecordKind::kArrival);
  rec.append(r);

  std::ostringstream os;
  rec.write(os);
  const obs::PostmortemReport report = obs::analyze_journal(parse(os.str()));
  EXPECT_EQ(report.arrivals, 1u);
  ASSERT_EQ(report.timelines.size(), 1u);
  EXPECT_EQ(report.timelines[0].arrival, 0.0);
  EXPECT_EQ(report.timelines[0].completion, 0.5);
  EXPECT_TRUE(report.timelines[0].admitted);
  EXPECT_EQ(report.slo.deadline_hits, 1u);
}

// The three journals below once made analyze_journal allocate tables sized
// by a field the file only claims (a bad_alloc at any memory limit); each
// must now give a report.

TEST_F(PostmortemTest, HostileDemandCountAllocatesNothing) {
  // One arrival claiming 0xFFFFFFFF demands.
  const std::string bytes = from_hex(
      std::string(kHeaderPrefix) + "0100000000000000" + "0100000000000000" +
      "0000000000000000" + "0000000000000000" +
      "0000000000000000" + "000000000000f03f" + "0000000000000000" +
      "00000000" + "ffffffff" + "ffffffff" + "00" + "00" + "0000");
  ASSERT_EQ(bytes.size(), 88u);
  const obs::PostmortemReport report = obs::analyze_journal(parse(bytes));
  EXPECT_EQ(report.arrivals, 1u);
  ASSERT_EQ(report.timelines.size(), 1u);
  EXPECT_EQ(report.timelines[0].n_demands, 0xffffffffu);
  EXPECT_FALSE(report.timelines[0].admitted);
}

TEST_F(PostmortemTest, HostileSiteIdKeysOnlyItsOwnRow) {
  // An arrival, then its one demand launched at site 0xFFFFFFFE.
  const std::string bytes = from_hex(
      std::string(kHeaderPrefix) + "0200000000000000" + "0200000000000000" +
      "0000000000000000" + "0000000000000000" +
      "0000000000000000" + "000000000000f03f" + "0000000000000000" +
      "00000000" + "01000000" + "ffffffff" + "00" + "00" + "0000" +
      "0000000000000000" + "000000000000e03f" + "000000000000d03f" +
      "00000000" + "00000000" + "feffffff" + "01" + "00" + "0000");
  ASSERT_EQ(bytes.size(), 128u);
  const obs::PostmortemReport report = obs::analyze_journal(parse(bytes));
  EXPECT_EQ(report.admitted, 1u);
  ASSERT_EQ(report.slo.per_site.size(), 1u);
  EXPECT_EQ(report.slo.per_site[0].site, 0xfffffffeu);
  EXPECT_EQ(report.slo.per_site[0].deadline_hits, 1u);
}

TEST_F(PostmortemTest, HostileRingCountDoesNotSizeTheQueryTable) {
  // A ring header claiming 2^63 appended records and one arrival with id
  // 0xFFFFFFF0, which that count admits.
  const std::string bytes = from_hex(
      std::string(kHeaderPrefix) + "0000000000000080" + "0100000000000000" +
      "ffffffffffffff7f" + "0100000000000000" +
      "0000000000000000" + "000000000000f03f" + "0000000000000000" +
      "f0ffffff" + "01000000" + "ffffffff" + "00" + "00" + "0000");
  ASSERT_EQ(bytes.size(), 88u);
  const obs::PostmortemReport report = obs::analyze_journal(parse(bytes));
  EXPECT_EQ(report.arrivals, 1u);
  ASSERT_EQ(report.timelines.size(), 1u);
  EXPECT_EQ(report.timelines[0].query, 0xfffffff0u);
}

TEST_F(PostmortemTest, AlertWindowsReconstructAndAttributeBreaches) {
  // Hand-built journal: one admitted query that breaches its deadline
  // (arrival t=0, deadline 1, compute done t=2), three alert transitions
  // around it — a resolved window spanning the breach, a still-open window
  // that starts after it, and a ring-orphaned resolve whose open record was
  // overwritten (the window is rebuilt from the resolve's v1 = onset).
  obs::Recorder rec;
  rec.configure(obs::RecorderMode::kFull);

  obs::JournalRecord r;
  r.time = 0.0;
  r.v0 = 1.0;  // deadline
  r.a = 0;
  r.b = 1;
  r.site = obs::kNoSite;
  r.kind = static_cast<std::uint8_t>(obs::RecordKind::kArrival);
  rec.append(r);

  r = obs::JournalRecord{};
  r.time = 0.0;
  r.v0 = 2.0;  // total delay
  r.v1 = 0.5;  // proc delay
  r.a = 0;
  r.b = 0;
  r.site = 1;
  r.kind = static_cast<std::uint8_t>(obs::RecordKind::kTransferStart);
  rec.append(r);

  // Alert seq 0: hotspot on dataset 3, warning, opens at 0.5.
  r = obs::JournalRecord{};
  r.time = 0.5;
  r.v0 = 0.5;   // share at the crossing
  r.v1 = 0.35;  // threshold
  r.a = 3;
  r.b = 0;
  r.site = obs::kNoSite;
  r.kind = static_cast<std::uint8_t>(obs::RecordKind::kAlert);
  r.flags = static_cast<std::uint16_t>((1u << 1) | (1u << 3));
  rec.append(r);

  r = obs::JournalRecord{};
  r.time = 2.0;
  r.a = 0;
  r.site = 1;
  r.kind = static_cast<std::uint8_t>(obs::RecordKind::kComputeDone);
  rec.append(r);  // completion 2.0 > deadline 1.0: the breach

  // Alert seq 1: site overload, critical, opens at 2.5 and never resolves.
  r = obs::JournalRecord{};
  r.time = 2.5;
  r.v0 = 0.97;
  r.v1 = 1.0;
  r.a = 1;
  r.b = 1;
  r.site = 1;
  r.kind = static_cast<std::uint8_t>(obs::RecordKind::kAlert);
  r.flags = static_cast<std::uint16_t>(2u << 1);
  rec.append(r);

  // Resolve of seq 0 at 3.0.
  r = obs::JournalRecord{};
  r.time = 3.0;
  r.v0 = 0.1;
  r.v1 = 0.5;  // onset echoed on resolves
  r.a = 3;
  r.b = 0;
  r.site = obs::kNoSite;
  r.kind = static_cast<std::uint8_t>(obs::RecordKind::kAlert);
  r.flags = static_cast<std::uint16_t>(1u | (1u << 1) | (1u << 3));
  rec.append(r);

  // Orphaned resolve of seq 7 (its open was overwritten in ring mode):
  // breach-burst on region 0, onset reconstructed from v1 = 1.5.
  r = obs::JournalRecord{};
  r.time = 4.0;
  r.v0 = 0.02;
  r.v1 = 1.5;
  r.a = 0;
  r.b = 7;
  r.site = obs::kNoSite;
  r.arg = 3;  // AlertKind::kBreachBurst
  r.kind = static_cast<std::uint8_t>(obs::RecordKind::kAlert);
  r.flags = static_cast<std::uint16_t>(1u | (1u << 1) | (2u << 3));
  rec.append(r);

  std::ostringstream os;
  rec.write(os);
  const obs::Journal journal = parse(os.str());
  const obs::PostmortemReport report = obs::analyze_journal(journal);

  EXPECT_EQ(report.alerts_opened, 3u);
  EXPECT_EQ(report.alerts_resolved, 2u);
  ASSERT_EQ(report.alerts.size(), 3u);

  const obs::AlertWindow& w0 = report.alerts[0];
  EXPECT_EQ(w0.seq, 0u);
  EXPECT_EQ(w0.onset, 0.5);
  EXPECT_EQ(w0.resolve, 3.0);
  EXPECT_EQ(w0.subject, 3u);
  EXPECT_EQ(w0.onset_value, 0.5);
  EXPECT_EQ(w0.threshold, 0.35);
  EXPECT_EQ(w0.resolve_value, 0.1);
  EXPECT_EQ(w0.breaches_in_window, 1u);  // completion 2.0 ∈ [0.5, 3.0]

  const obs::AlertWindow& w1 = report.alerts[1];
  EXPECT_EQ(w1.seq, 1u);
  EXPECT_LT(w1.resolve, 0.0);  // open to journal end
  EXPECT_EQ(w1.severity,
            static_cast<std::uint8_t>(obs::AlertSeverity::kCritical));
  EXPECT_EQ(w1.breaches_in_window, 0u);  // breach predates the onset

  const obs::AlertWindow& w2 = report.alerts[2];
  EXPECT_EQ(w2.seq, 7u);
  EXPECT_EQ(w2.onset, 1.5);  // rebuilt from the resolve record
  EXPECT_EQ(w2.resolve, 4.0);
  EXPECT_EQ(w2.kind,
            static_cast<std::uint8_t>(obs::AlertKind::kBreachBurst));
  EXPECT_EQ(w2.subject_kind,
            static_cast<std::uint8_t>(obs::AlertSubjectKind::kRegion));
  EXPECT_EQ(w2.breaches_in_window, 1u);  // completion 2.0 ∈ [1.5, 4.0]

  std::ostringstream text;
  obs::write_alerts_text(text, report);
  EXPECT_NE(text.str().find("alerts: 3 opened, 2 resolved, 1 still open"),
            std::string::npos)
      << text.str();
  EXPECT_NE(text.str().find("dataset_hotspot dataset 3 warning"),
            std::string::npos)
      << text.str();
}

TEST_F(PostmortemTest, ReportWritersProduceOutput) {
  const Instance inst = testing::medium_instance(11, /*f_max=*/3);
  const OnlineConfig cfg = faulted_config(inst);
  const auto [res, bytes] = record_run(inst, cfg);
  const obs::PostmortemReport report = analyze_journal(parse(bytes));

  std::ostringstream text;
  obs::write_report_text(text, report, 5);
  EXPECT_NE(text.str().find("slo:"), std::string::npos);
  EXPECT_NE(text.str().find("arrivals:"), std::string::npos);

  std::ostringstream json;
  obs::write_report_json(json, report, 5);
  EXPECT_EQ(json.str().front(), '{');
  EXPECT_NE(json.str().find("\"slo\""), std::string::npos);
  EXPECT_NE(json.str().find("\"hit_ratio\""), std::string::npos);
}

}  // namespace
}  // namespace edgerep
