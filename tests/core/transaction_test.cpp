// The transactional admission engine: DualState savepoint/rollback units,
// the candidate index, and the savepoint-based run_appro pinned to the
// `plans/oracle/savepoint_*` lines of tests/golden/online_hashes.txt —
// plans, per-site and per-query duals, metrics and dual objectives on
// seeded special- and general-case instances.  The lines hold what this
// path and the deep-copy trial commit it replaced both produced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/greedy.h"
#include "core/appro.h"
#include "core/candidate_index.h"
#include "core/primal_dual.h"
#include "core/row_source.h"
#include "helpers/fixtures.h"
#include "helpers/golden.h"
#include "util/rng.h"

namespace edgerep {
namespace {

// --- DualState savepoints -------------------------------------------------

TEST(DualSavepoint, RollbackRestoresAllVariablesExactly) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  DualState duals(inst);
  duals.raise_theta(0, 3.0, inst.site(0).available);
  duals.set_y(0, 0.25);
  const double theta0 = duals.theta(0);
  const double y0 = duals.y(0);
  const double mu0 = duals.mu(0);

  const auto sp = duals.savepoint();
  duals.raise_theta(0, 1.7, inst.site(0).available);
  duals.raise_theta(1, 2.9, inst.site(1).available);
  duals.raise_mu(0);
  duals.set_y(0, 4.5);
  EXPECT_EQ(duals.undo_log_size(), 4u);

  duals.rollback_to(sp);
  EXPECT_EQ(duals.theta(0), theta0);  // bit-exact: previous values journaled
  EXPECT_EQ(duals.theta(1), 0.0);
  EXPECT_EQ(duals.y(0), y0);
  EXPECT_EQ(duals.mu(0), mu0);
  EXPECT_EQ(duals.undo_log_size(), 0u);
}

TEST(DualSavepoint, NestedSavepointsUnwindInLifoOrder) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  DualState duals(inst);

  const auto sp_outer = duals.savepoint();
  duals.raise_theta(0, 1.0, inst.site(0).available);
  const double mid_theta = duals.theta(0);

  const auto sp_inner = duals.savepoint();
  duals.raise_theta(0, 1.0, inst.site(0).available);
  duals.raise_mu(0);

  duals.rollback_to(sp_inner);
  EXPECT_EQ(duals.theta(0), mid_theta);
  EXPECT_EQ(duals.mu(0), 0.0);

  duals.rollback_to(sp_outer);
  EXPECT_EQ(duals.theta(0), 0.0);
}

TEST(DualSavepoint, CommitStopsJournalingAndInvalidatesSavepoints) {
  const Instance inst = testing::TinyFixture::make(/*deadline=*/5.0);
  DualState duals(inst);
  const auto sp = duals.savepoint();
  duals.raise_mu(0);
  const auto stale = duals.savepoint();
  duals.rollback_to(sp);
  duals.raise_mu(0);
  duals.commit();
  EXPECT_EQ(duals.undo_log_size(), 0u);
  duals.raise_mu(0);  // outside any transaction: not journaled
  EXPECT_EQ(duals.undo_log_size(), 0u);
  EXPECT_THROW(duals.rollback_to(stale), std::invalid_argument);
}

// --- candidate index ------------------------------------------------------

/// Shape of a hand-built index instance: sites on a random graph, queries
/// whose homes are drawn from the even sites below 2·`homes` (so several
/// queries share a home and the other sites are homes of none), 1–3
/// distinct demands each.
struct IndexCase {
  std::size_t sites = 12;
  std::size_t queries = 30;
  std::size_t homes = 6;        ///< at most sites / 2
  bool disconnected = false;    ///< two halves with no link between them
  bool zero_proc = false;       ///< every processing delay 0
  /// Processing delays in [proc_floor, proc_floor + 3), every third site
  /// at proc_floor.
  bool spread_proc = false;
  double proc_floor = 0.0;
  bool equal_links = false;     ///< every link delay 0.5: tied path delays
  double deadline_scale = 1.0;  ///< multiplies every drawn deadline
  /// Volumes, selectivities and deadlines scaled by 1e-200, so α·|S_n|
  /// underflows to 0 and the transfer term vanishes.
  bool tiny_volumes = false;
};

/// Deterministic in (seed, shape).  A positive `q0_deadline` replaces query
/// 0's drawn deadline and changes nothing else, so a deadline computed on
/// one build applies to the identical instance of a second build.
Instance index_instance(std::uint64_t seed, const IndexCase& c,
                        double q0_deadline = 0.0) {
  Rng rng(seed);
  Graph g;
  for (std::size_t v = 0; v < c.sites; ++v) {
    g.add_node(v % 4 == 0 ? NodeRole::kDataCenter : NodeRole::kCloudlet);
  }
  // A path through each half keeps the half connected; chords add choice.
  const std::size_t half = c.disconnected ? c.sites / 2 : c.sites;
  const auto link = [&] {
    const double delay = rng.uniform(0.05, 1.0);
    return c.equal_links ? 0.5 : delay;
  };
  for (std::size_t v = 1; v < c.sites; ++v) {
    if (v == half) continue;
    g.add_edge(static_cast<NodeId>(v - 1), static_cast<NodeId>(v), link());
  }
  for (std::size_t e = 0; e < c.sites; ++e) {
    const auto u = static_cast<NodeId>(rng.uniform_u64(0, c.sites - 1));
    const auto v = static_cast<NodeId>(rng.uniform_u64(0, c.sites - 1));
    if (u == v || (u < half) != (v < half)) continue;
    g.add_edge(u, v, link());
  }
  Instance inst(std::move(g));
  for (std::size_t v = 0; v < c.sites; ++v) {
    double proc = c.zero_proc ? 0.0 : rng.uniform(0.0, 0.3);
    if (c.spread_proc) {
      proc = c.proc_floor + (v % 3 == 0 ? 0.0 : 10.0 * proc);
    }
    inst.add_site(static_cast<NodeId>(v), rng.uniform(5.0, 50.0), proc);
  }
  inst.set_available(1, 0.0);  // the 1e-12 floor of the reciprocal
  const double scale = c.tiny_volumes ? 1e-200 : 1.0;
  constexpr std::size_t kDatasets = 5;
  for (std::size_t n = 0; n < kDatasets; ++n) {
    inst.add_dataset(scale * rng.uniform(1.0, 4.0),
                     static_cast<SiteId>(rng.uniform_u64(0, c.sites - 1)));
  }
  for (std::size_t m = 0; m < c.queries; ++m) {
    const auto home = static_cast<SiteId>(2 * rng.uniform_u64(0, c.homes - 1));
    const std::size_t f = rng.uniform_u64(1, 3);
    const std::size_t first = rng.uniform_u64(0, kDatasets - 1);
    std::vector<DatasetDemand> demands;
    for (std::size_t k = 0; k < f; ++k) {
      demands.push_back({static_cast<DatasetId>((first + k) % kDatasets),
                         scale * rng.uniform(0.1, 1.0)});
    }
    double deadline = scale * c.deadline_scale * rng.uniform(0.2, 3.0);
    if (m == 0 && q0_deadline > 0.0) deadline = q0_deadline;
    inst.add_query(home, rng.uniform(0.5, 2.0), deadline, std::move(demands));
  }
  inst.finalize();
  return inst;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every row against the brute-force reference: the per-site deadline test
/// in ascending site order, with the η base it implies; and the per-site
/// capacity reciprocals.
void expect_matches_naive_scan(const Instance& inst,
                               const CandidateIndex& index) {
  std::size_t entries = 0;
  for (const Query& q : inst.queries()) {
    for (std::size_t di = 0; di < q.demands.size(); ++di) {
      SCOPED_TRACE("query " + std::to_string(q.id) + " demand " +
                   std::to_string(di));
      const DatasetDemand& dd = q.demands[di];
      EXPECT_EQ(bits(index.need(q.id, di)),
                bits(resource_demand(inst, q, dd)));
      const CandidateSoA row = index.soa(q.id, di);
      std::size_t c = 0;
      for (const Site& s : inst.sites()) {
        if (!deadline_ok(inst, q, dd, s.id)) continue;
        ASSERT_LT(c, row.size());
        EXPECT_EQ(row.site[c], s.id);
        EXPECT_EQ(bits(row.dod[c]),
                  bits(evaluation_delay(inst, q, dd, s.id) / q.deadline));
        ++c;
      }
      EXPECT_EQ(c, row.size());  // no infeasible entries
      entries += c;
    }
  }
  EXPECT_EQ(index.size(), entries);
  for (const Site& s : inst.sites()) {
    EXPECT_EQ(bits(index.availability().inv()[s.id]),
              bits(1.0 / std::max(s.available, 1e-12)));
  }
}

void expect_identical_arrays(const Instance& inst, const CandidateIndex& a,
                             const CandidateIndex& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const Query& q : inst.queries()) {
    for (std::size_t di = 0; di < q.demands.size(); ++di) {
      EXPECT_EQ(bits(a.need(q.id, di)), bits(b.need(q.id, di)));
      const CandidateSoA ra = a.soa(q.id, di);
      const CandidateSoA rb = b.soa(q.id, di);
      ASSERT_EQ(ra.size(), rb.size());
      for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra.site[i], rb.site[i]);
        EXPECT_EQ(bits(ra.dod[i]), bits(rb.dod[i]));
      }
    }
  }
}

/// Whether some candidate of the row sits exactly at the deadline.
bool has_site_at_deadline(const CandidateSoA& row) {
  return std::find(row.dod.begin(), row.dod.end(), 1.0) != row.dod.end();
}

/// The `rank`-th smallest positive finite delay of query 0's first demand
/// among the sites at the smallest processing delay, where the reach bound
/// equals the delay (0-based, clamped to the largest).
double floor_site_delay(const Instance& inst, std::size_t rank) {
  double d_min = kInfDelay;
  for (const Site& s : inst.sites()) d_min = std::min(d_min, s.proc_delay);
  const Query& q0 = inst.query(0);
  std::vector<double> delays;
  for (const Site& s : inst.sites()) {
    const double d = evaluation_delay(inst, q0, q0.demands[0], s.id);
    if (s.proc_delay == d_min && d > 0.0 && d < kInfDelay) delays.push_back(d);
  }
  std::sort(delays.begin(), delays.end());
  return delays.empty() ? 0.0 : delays[std::min(rank, delays.size() - 1)];
}

/// Short rows: deadlines a third of the default, processing delays spread
/// over [floor, floor + 3) with every third site at the floor, and ~100
/// demands per home, so the build walks each home's delay column.  Odd
/// seeds put the floor at 0, even seeds at 0.02 and cut the graph in two
/// (unreachable sites); every third seed ties the path delays.
IndexCase short_rows(std::uint64_t seed) {
  IndexCase c;
  c.sites = 120;
  c.queries = 200;
  c.homes = 2;
  c.deadline_scale = 0.3;
  c.spread_proc = true;
  c.proc_floor = seed % 2 == 0 ? 0.02 : 0.0;
  c.disconnected = seed % 2 == 0;
  c.equal_links = seed % 3 == 0;
  return c;
}

/// Deadlines far past every path delay: each demand's row holds every site
/// it can reach, so no walk cap prunes it and every demand scans.
IndexCase loose_rows(std::uint64_t seed) {
  IndexCase c = short_rows(seed);
  c.deadline_scale = 1e6;
  return c;
}

/// Query 0's deadline lies past every path delay while the other ~100
/// demands at its home keep short rows: one loose demand among tight ones.
constexpr double kLooseDeadline = 1e9;

/// α·|S_n| underflows to 0, so a demand's reach is every reachable site;
/// query 0's deadline is exactly volume · (smallest processing delay).
Instance underflow_instance(std::uint64_t seed, std::size_t queries = 120) {
  IndexCase c;
  c.sites = 40;
  c.queries = queries;
  c.homes = 4;
  c.tiny_volumes = true;
  const Instance probe = index_instance(seed, c);
  double d_min = kInfDelay;
  for (const Site& s : probe.sites()) d_min = std::min(d_min, s.proc_delay);
  const DatasetDemand& dd = probe.query(0).demands[0];
  const double vol = probe.dataset(dd.dataset).volume;
  EXPECT_EQ(dd.selectivity * vol, 0.0);
  EXPECT_GT(vol * d_min, 0.0);
  return index_instance(seed, c, vol * d_min);
}

TEST(CandidateIndexTest, MatchesNaiveFeasibilityAndDelay) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Instance generated = testing::medium_instance(seed, /*f_max=*/4);
    expect_matches_naive_scan(generated, CandidateIndex(generated));

    IndexCase c;
    c.sites = 6 + seed * 3;
    c.queries = 3 * c.sites;
    c.homes = c.sites / 2;
    c.disconnected = seed % 3 == 0;
    c.zero_proc = seed % 4 == 1;
    // Query 0's deadline set to its first demand's largest finite delay:
    // the site with that delay sits exactly at the deadline and stays a
    // candidate.
    const Instance probe = index_instance(seed, c);
    const Query& q0 = probe.query(0);
    double tight = 0.0;
    for (const Site& s : probe.sites()) {
      const double d = evaluation_delay(probe, q0, q0.demands[0], s.id);
      if (d < kInfDelay) tight = std::max(tight, d);
    }
    ASSERT_GT(tight, 0.0);
    const Instance inst = index_instance(seed, c, tight);
    const CandidateIndex index(inst);
    expect_matches_naive_scan(inst, index);

    const CandidateSoA row0 = index.soa(0, 0);
    ASSERT_GT(row0.size(), 0u);
    EXPECT_TRUE(has_site_at_deadline(row0));
    if (c.disconnected) {
      // Query 0's home sees only its own half.
      for (const SiteId l : row0.site) {
        EXPECT_EQ(l < c.sites / 2, inst.query(0).home < c.sites / 2);
      }
    }

    // Short rows, with query 0's deadline at the delay of a floor site.
    const IndexCase walk = short_rows(seed);
    const Instance walk_inst = index_instance(
        seed, walk, floor_site_delay(index_instance(seed, walk), 1));
    const CandidateIndex walk_index(walk_inst);
    expect_matches_naive_scan(walk_inst, walk_index);
    EXPECT_TRUE(has_site_at_deadline(walk_index.soa(0, 0)));
    std::size_t slots = 0;
    for (const Query& q : walk_inst.queries()) slots += q.demands.size();
    EXPECT_LT(walk_index.size() * 4, slots * walk.sites);

    // One loose demand in a home group of tight ones: it tests every site
    // it can reach, and the others still walk.
    const Instance loose_one = index_instance(seed, walk, kLooseDeadline);
    const CandidateIndex loose_one_index(loose_one);
    expect_matches_naive_scan(loose_one, loose_one_index);
    EXPECT_GE(loose_one_index.soa(0, 0).size(), walk.sites / 2);

    // Every demand past any cap.
    const Instance loose = index_instance(seed, loose_rows(seed));
    const CandidateIndex loose_index(loose);
    expect_matches_naive_scan(loose, loose_index);
    std::size_t loose_slots = 0;
    for (const Query& q : loose.queries()) loose_slots += q.demands.size();
    EXPECT_GE(loose_index.size(), loose_slots * walk.sites / 2);

    // The transfer term underflows: only the sites at the smallest
    // processing delay meet query 0's deadline, and at least one does.
    const Instance tiny = underflow_instance(seed);
    const CandidateIndex tiny_index(tiny);
    expect_matches_naive_scan(tiny, tiny_index);
    EXPECT_TRUE(has_site_at_deadline(tiny_index.soa(0, 0)));
  }

  // An infinite volume under an infinite deadline: every delay is inf or
  // NaN (inf·0), so the sites with positive processing and path delays are
  // candidates, the unreachable one included.
  Graph g;
  for (int v = 0; v < 3; ++v) g.add_node();
  g.add_edge(0, 1, 0.5);
  Instance inst(std::move(g));
  inst.add_site(0, 10.0, 0.0);
  inst.add_site(1, 10.0, 0.2);
  inst.add_site(2, 10.0, 0.1);
  inst.add_dataset(kInfDelay, 0);
  inst.add_query(0, 1.0, kInfDelay, {{0, 0.5}});
  inst.finalize();
  const CandidateIndex index(inst);
  expect_matches_naive_scan(inst, index);
  EXPECT_EQ(index.size(), 2u);
}

TEST(CandidateIndexTest, ParallelBuildMatchesSerialBuild) {
  // Every instance holds more queries × sites than kPooledBuildThreshold,
  // so its parallel build fans out on the pool.
  const auto both_builds = [](const Instance& inst) {
    ASSERT_GT(inst.queries().size() * inst.sites().size(),
              kPooledBuildThreshold);
    expect_identical_arrays(inst, CandidateIndex(inst, true),
                            CandidateIndex(inst, false));
    expect_matches_naive_scan(inst, CandidateIndex(inst, true));
  };
  IndexCase c;
  c.sites = 64;
  c.queries = 640;
  c.homes = 20;
  both_builds(index_instance(41, c));
  c.homes = 1;  // every query shares one home: one column for all blocks
  both_builds(index_instance(43, c));

  for (const std::uint64_t seed : {44, 45, 46}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    IndexCase walk = short_rows(seed);
    walk.queries = 400;
    both_builds(index_instance(seed, walk));
    both_builds(index_instance(seed, walk, kLooseDeadline));
    IndexCase loose = loose_rows(seed);
    loose.queries = 400;
    both_builds(index_instance(seed, loose));
    both_builds(underflow_instance(seed, /*queries=*/1200));
  }
}

// The build sweeps each home's queries with a lookahead of up to 8
// queries.  Every query here shares one home, so the sweep is shorter
// than the lookahead, as long as it, or just past it; the other homes
// hold none.  Rows walk (short rows) or scan (loose rows).
TEST(CandidateIndexTest, HomesShorterThanTheLookahead) {
  for (std::size_t queries = 1; queries <= 17; ++queries) {
    SCOPED_TRACE(std::to_string(queries) + " queries");
    for (IndexCase c : {short_rows(queries), loose_rows(queries)}) {
      c.queries = queries;
      c.homes = 1;
      const Instance inst = index_instance(queries, c);
      expect_identical_arrays(inst, CandidateIndex(inst, true),
                              CandidateIndex(inst, false));
      expect_matches_naive_scan(inst, CandidateIndex(inst));
    }
  }
}

// --- savepoint transaction against the frozen copy-oracle output -------

/// One run's fingerprint: plan_fp with the dual objective, the demand
/// counts, per-site load and θ bits, per-query y and μ bits, and the
/// metrics.
std::string txn_fp(const Instance& inst, const ApproResult& r) {
  using testing::bits;
  std::ostringstream os;
  os << testing::plan_fp(r.plan, r.dual_objective) << ' '
     << r.demands_assigned << ':' << r.demands_rejected << '\n';
  for (const Site& s : inst.sites()) {
    os << bits(r.plan.load(s.id)) << bits(r.duals.theta(s.id)) << '\n';
  }
  for (const Query& q : inst.queries()) {
    os << bits(r.duals.y(q.id)) << bits(r.duals.mu(q.id)) << '\n';
  }
  os << bits(r.metrics.admitted_volume) << bits(r.metrics.assigned_volume)
     << ' ' << r.metrics.admitted_queries << ' ' << r.metrics.replicas_placed
     << ' ' << bits(r.metrics.utilization);
  return os.str();
}

TEST(TransactionGolden, SpecialCaseSavepointMatchesCopy) {
  std::vector<std::string> fps;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance inst = testing::small_instance(seed, /*f_max=*/1);
    fps.push_back(txn_fp(inst, appro_s(inst)));
  }
  testing::expect_golden("plans/oracle/savepoint_special_case",
                         testing::runs_fp(fps));
}

TEST(TransactionGolden, GeneralCaseSavepointMatchesCopy) {
  std::vector<std::string> fps;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Instance inst = testing::medium_instance(seed, /*f_max=*/5);
    fps.push_back(txn_fp(inst, appro_g(inst)));
  }
  testing::expect_golden("plans/oracle/savepoint_general_case",
                         testing::runs_fp(fps));
}

TEST(TransactionGolden, HoldsAcrossOrdersAndStrictReuse) {
  using Order = ApproOptions::Order;
  const Instance inst = testing::medium_instance(40, /*f_max=*/4);
  std::vector<std::string> fps;
  for (const Order order :
       {Order::kInput, Order::kVolumeAsc, Order::kDeadlineAsc,
        Order::kRandom}) {
    for (const bool strict : {false, true}) {
      ApproOptions opts;
      opts.order = order;
      opts.strict_reuse = strict;
      fps.push_back(txn_fp(inst, appro_g(inst, opts)));
    }
  }
  testing::expect_golden("plans/oracle/savepoint_orders_strict_reuse",
                         testing::runs_fp(fps));
}

TEST(TransactionGolden, RejectionHeavyInstancesStayIdentical) {
  // Tight capacity forces many rollbacks — the path the undo log must get
  // right.  Shrink site capacity so a large share of queries is rejected.
  WorkloadConfig cfg;
  cfg.network_size = 24;
  cfg.min_queries = 40;
  cfg.max_queries = 40;
  cfg.max_datasets_per_query = 5;
  cfg.dc_capacity = {20.0, 40.0};
  cfg.cl_capacity = {2.0, 4.0};
  std::vector<std::string> fps;
  for (std::uint64_t seed = 50; seed < 60; ++seed) {
    const Instance inst = generate_instance(cfg, seed);
    const ApproResult r = appro_g(inst);
    EXPECT_GT(r.demands_rejected, 0u) << "seed " << seed
                                      << ": instance not rejection-heavy";
    fps.push_back(txn_fp(inst, r));
  }
  testing::expect_golden("plans/oracle/savepoint_rejection_heavy",
                         testing::runs_fp(fps));
}

// --- greedy savepoint wiring ---------------------------------------------

TEST(GreedyAtomic, AllOrNothingPerQueryAndValid) {
  GreedyOptions opts;
  opts.atomic_queries = true;
  for (std::uint64_t seed = 3; seed <= 8; ++seed) {
    const Instance inst = testing::medium_instance(seed, /*f_max=*/4);
    const BaselineResult r = greedy_g(inst, opts);
    EXPECT_TRUE(validate(r.plan).ok) << "seed " << seed;
    for (const Query& q : inst.queries()) {
      const std::size_t assigned = r.plan.assigned_demands(q.id);
      EXPECT_TRUE(assigned == 0 || assigned == q.demands.size())
          << "seed " << seed << " query " << q.id;
    }
    EXPECT_NEAR(r.metrics.admitted_volume, r.metrics.assigned_volume, 1e-9);
  }
}

TEST(GreedyAtomic, DefaultModeUnchanged) {
  // The paper-faithful default still strands partial queries; atomicity is
  // opt-in and must not leak into the default results.
  const Instance inst = testing::medium_instance(9, /*f_max=*/4);
  GreedyOptions atomic_opts;
  atomic_opts.atomic_queries = true;
  const BaselineResult def = greedy_g(inst);
  const BaselineResult atomic = greedy_g(inst, atomic_opts);
  ASSERT_NE(def.demands_assigned, atomic.demands_assigned)
      << "seed does not separate the modes";
  auto partial_queries = [&inst](const ReplicaPlan& plan) {
    std::size_t partial = 0;
    for (const Query& q : inst.queries()) {
      const std::size_t assigned = plan.assigned_demands(q.id);
      if (assigned > 0 && assigned < q.demands.size()) ++partial;
    }
    return partial;
  };
  EXPECT_GT(def.metrics.assigned_volume, def.metrics.admitted_volume);
  EXPECT_GT(partial_queries(def.plan), 0u);
  EXPECT_NEAR(atomic.metrics.assigned_volume, atomic.metrics.admitted_volume,
              1e-9);
  EXPECT_EQ(partial_queries(atomic.plan), 0u);
}

}  // namespace
}  // namespace edgerep
