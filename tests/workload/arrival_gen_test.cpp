#include "workload/arrival_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "helpers/fixtures.h"

namespace edgerep {
namespace {

using testing::medium_instance;

TEST(ArrivalGen, OneArrivalPerQueryStrictlyIncreasing) {
  const Instance inst = medium_instance(7);
  const std::vector<Arrival> stream = generate_arrival_stream(inst, 50.0, 42);
  ASSERT_EQ(stream.size(), inst.queries().size());
  std::vector<bool> seen(inst.queries().size(), false);
  double prev = 0.0;
  for (const Arrival& a : stream) {
    EXPECT_GT(a.time, prev) << "times must be strictly increasing";
    prev = a.time;
    ASSERT_LT(a.query, seen.size());
    EXPECT_FALSE(seen[a.query]) << "query " << a.query << " arrives twice";
    seen[a.query] = true;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(ArrivalGen, DeterministicPerSeed) {
  const Instance inst = medium_instance(7);
  const auto a = generate_arrival_stream(inst, 50.0, 42);
  const auto b = generate_arrival_stream(inst, 50.0, 42);
  const auto c = generate_arrival_stream(inst, 50.0, 43);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].query, b[i].query);
  }
  // A different seed must change the sequence somewhere.
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].time != c[i].time || a[i].query != c[i].query;
  }
  EXPECT_TRUE(differs);
}

TEST(ArrivalGen, QueryIdOrderPreservesBatchSequence) {
  const Instance inst = medium_instance(11);
  const auto stream =
      generate_arrival_stream(inst, 50.0, 42, ArrivalOrder::kQueryId);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].query, static_cast<QueryId>(i));
  }
}

TEST(ArrivalGen, ShuffledOrderActuallyShuffles) {
  const Instance inst = medium_instance(11);
  const auto stream =
      generate_arrival_stream(inst, 50.0, 42, ArrivalOrder::kShuffled);
  bool moved = false;
  for (std::size_t i = 0; i < stream.size() && !moved; ++i) {
    moved = stream[i].query != static_cast<QueryId>(i);
  }
  EXPECT_TRUE(moved) << "shuffle left the identity permutation";
}

TEST(ArrivalGen, MeanGapTracksRate) {
  const Instance inst = medium_instance(13);
  const double rate = 100.0;
  const auto stream = generate_arrival_stream(inst, rate, 7);
  const double span = stream.back().time;
  const double mean_gap = span / static_cast<double>(stream.size());
  // Loose statistical envelope — just catch a mis-parameterized exponential.
  EXPECT_GT(mean_gap, 0.2 / rate);
  EXPECT_LT(mean_gap, 5.0 / rate);
}

TEST(ArrivalGen, RejectsBadInputs) {
  const Instance inst = medium_instance(7);
  EXPECT_THROW(generate_arrival_stream(inst, 0.0, 1), std::invalid_argument);
  EXPECT_THROW(generate_arrival_stream(inst, -1.0, 1), std::invalid_argument);
  Instance raw;
  EXPECT_THROW(generate_arrival_stream(raw, 10.0, 1), std::invalid_argument);
}

TEST(ArrivalGen, RejectsNonFiniteRateAndWave) {
  const Instance inst = medium_instance(7);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  for (const double rate : {kInf, nan}) {
    EXPECT_THROW(generate_arrival_stream(inst, rate, 1), std::invalid_argument)
        << rate;
  }
  for (const double knob : {kInf, nan, -1.0}) {
    EXPECT_THROW(generate_arrival_stream(inst, 10.0, 1,
                                         ArrivalOrder::kShuffled, knob, 5.0),
                 std::invalid_argument)
        << "amplitude " << knob;
    EXPECT_THROW(generate_arrival_stream(inst, 10.0, 1,
                                         ArrivalOrder::kShuffled, 0.5, knob),
                 std::invalid_argument)
        << "period " << knob;
  }
}

TEST(ArrivalGen, StreamInstanceBuildsSmallFinalizedWorkload) {
  StreamWorkloadConfig cfg;
  cfg.sites = 40;
  cfg.avg_degree = 6.0;
  cfg.queries = 120;
  cfg.datasets = 8;
  cfg.max_replicas = 16;
  const Instance inst = stream_instance(cfg, 5);
  EXPECT_TRUE(inst.finalized());
  EXPECT_EQ(inst.sites().size(), cfg.sites);
  EXPECT_EQ(inst.queries().size(), cfg.queries);
  EXPECT_EQ(inst.datasets().size(), cfg.datasets);
  for (const Query& q : inst.queries()) {
    ASSERT_EQ(q.demands.size(), 1u) << "stream workloads are single-demand";
    EXPECT_GT(q.deadline, 0.0);
  }
  // Deterministic per seed.
  const Instance again = stream_instance(cfg, 5);
  EXPECT_EQ(again.queries()[7].deadline, inst.queries()[7].deadline);
  EXPECT_EQ(again.site(11).available, inst.site(11).available);
}

TEST(ArrivalGen, StreamInstanceMultiDemandKnob) {
  StreamWorkloadConfig cfg;
  cfg.sites = 40;
  cfg.queries = 200;
  cfg.datasets = 8;
  cfg.max_demands = 3;
  const Instance inst = stream_instance(cfg, 5);
  bool saw_multi = false;
  for (const Query& q : inst.queries()) {
    ASSERT_GE(q.demands.size(), 1u);
    ASSERT_LE(q.demands.size(), cfg.max_demands);
    saw_multi |= q.demands.size() > 1;
    for (std::size_t i = 0; i < q.demands.size(); ++i) {
      for (std::size_t j = i + 1; j < q.demands.size(); ++j) {
        EXPECT_NE(q.demands[i].dataset, q.demands[j].dataset)
            << "demands must target distinct datasets";
      }
    }
  }
  EXPECT_TRUE(saw_multi) << "200 queries at max_demands=3 with no multi";

  // Sites and datasets come from independent substreams: turning the knob
  // must not disturb them.
  StreamWorkloadConfig base = cfg;
  base.max_demands = 1;
  const Instance single = stream_instance(base, 5);
  EXPECT_EQ(single.site(11).available, inst.site(11).available);
  EXPECT_EQ(single.dataset(3).volume, inst.dataset(3).volume);
  for (const Query& q : single.queries()) {
    ASSERT_EQ(q.demands.size(), 1u);
  }
}

TEST(ArrivalGen, WaveKnobsOffReproduceHistoricalStreams) {
  // The wave parameters default to 0; passing them explicitly as 0 must
  // reproduce the parameterless stream bit for bit (the gap draws are
  // unchanged, only the division by the modulation is skipped).
  const Instance inst = medium_instance(7);
  const std::vector<Arrival> base = generate_arrival_stream(inst, 50.0, 42);
  const std::vector<Arrival> off = generate_arrival_stream(
      inst, 50.0, 42, ArrivalOrder::kShuffled, 0.0, 0.0);
  ASSERT_EQ(base.size(), off.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].time, off[i].time) << "arrival " << i;
    EXPECT_EQ(base[i].query, off[i].query) << "arrival " << i;
  }
}

TEST(ArrivalGen, WaveCompressesGapsAtThePeak) {
  // With amplitude a and period T the instantaneous rate swings by
  // 1 + a·sin(2πt/T): gaps drawn near the crest (t ≈ T/4 mod T) shrink,
  // gaps near the trough stretch.  Compare each wave gap to the unmodulated
  // gap of the same draw index: the modulated stream must have strictly
  // more sub-mean gaps in crest phase than the flat stream does.
  // Period short enough that the handful of medium-instance arrivals walks
  // through both the crest and the trough of the sine.
  const Instance inst = medium_instance(9);
  const double period = 0.1;
  const std::vector<Arrival> flat =
      generate_arrival_stream(inst, 50.0, 13, ArrivalOrder::kQueryId);
  const std::vector<Arrival> wavy = generate_arrival_stream(
      inst, 50.0, 13, ArrivalOrder::kQueryId, 0.9, period);
  ASSERT_EQ(flat.size(), wavy.size());
  // The same seed draws the same exponential gaps; every wave gap is the
  // flat gap divided by the (clamped) modulation at the running wave time.
  double t_flat = 0.0;
  double t_wave = 0.0;
  bool saw_compressed = false;
  bool saw_stretched = false;
  for (std::size_t i = 0; i < flat.size(); ++i) {
    const double g_flat = flat[i].time - t_flat;
    const double g_wave = wavy[i].time - t_wave;
    if (g_wave < g_flat) saw_compressed = true;
    if (g_wave > g_flat) saw_stretched = true;
    t_flat = flat[i].time;
    t_wave = wavy[i].time;
  }
  EXPECT_TRUE(saw_compressed) << "no gap shrank at the crest";
  EXPECT_TRUE(saw_stretched) << "no gap stretched in the trough";
}

TEST(ArrivalGen, ZipfKnobOffReproducesHistoricalInstances) {
  StreamWorkloadConfig cfg;
  cfg.sites = 40;
  cfg.queries = 200;
  cfg.datasets = 8;
  const Instance base = stream_instance(cfg, 5);
  StreamWorkloadConfig zipf_off = cfg;
  zipf_off.zipf_exponent = 0.0;  // explicit default
  zipf_off.zipf_drift_period = 0;
  const Instance again = stream_instance(zipf_off, 5);
  ASSERT_EQ(base.queries().size(), again.queries().size());
  for (std::size_t m = 0; m < base.queries().size(); ++m) {
    ASSERT_EQ(base.queries()[m].demands.size(),
              again.queries()[m].demands.size());
    EXPECT_EQ(base.queries()[m].demands[0].dataset,
              again.queries()[m].demands[0].dataset);
    EXPECT_EQ(base.queries()[m].deadline, again.queries()[m].deadline);
  }
}

TEST(ArrivalGen, ZipfSkewConcentratesDemandOnTheHeadDataset) {
  StreamWorkloadConfig cfg;
  cfg.sites = 40;
  cfg.queries = 2000;
  cfg.datasets = 16;
  cfg.zipf_exponent = 1.5;
  const Instance inst = stream_instance(cfg, 5);
  std::vector<std::size_t> hist(cfg.datasets, 0);
  for (const Query& q : inst.queries()) ++hist[q.demands[0].dataset];
  // Zipf(1.5) over 16 ranks puts ≈ 45% of the mass on rank 1; uniform
  // would put 1/16 ≈ 6% on every dataset.
  EXPECT_GT(hist[0], cfg.queries / 4) << "head dataset is not hot";
  EXPECT_GT(hist[0], 4 * hist[8]) << "tail dataset rivals the head";
  // The skew knob rides its own substream and the uniform dataset draw is
  // still burned, so every non-dataset draw (site capacities, homes, rates,
  // selectivities) is bit-identical to the uniform instance.  Deadlines are
  // exempt: they scale with the chosen dataset's volume.
  StreamWorkloadConfig uniform = cfg;
  uniform.zipf_exponent = 0.0;
  const Instance u = stream_instance(uniform, 5);
  EXPECT_EQ(u.site(11).available, inst.site(11).available);
  EXPECT_EQ(u.queries()[7].home, inst.queries()[7].home);
  EXPECT_EQ(u.queries()[7].rate, inst.queries()[7].rate);
  EXPECT_EQ(u.queries()[7].demands[0].selectivity,
            inst.queries()[7].demands[0].selectivity);
}

TEST(ArrivalGen, ZipfDriftRotatesTheHotSet) {
  StreamWorkloadConfig cfg;
  cfg.sites = 40;
  cfg.queries = 3000;
  cfg.datasets = 16;
  cfg.zipf_exponent = 2.0;
  cfg.zipf_drift_period = 1000;
  const Instance inst = stream_instance(cfg, 5);
  // The rotation advances every 1000 queries: dataset (rank−1+k/1000) mod
  // 16, so each third of the workload has its own hot dataset.
  const auto hot_of = [&](std::size_t begin, std::size_t end) {
    std::vector<std::size_t> hist(cfg.datasets, 0);
    for (std::size_t m = begin; m < end; ++m) {
      ++hist[inst.queries()[m].demands[0].dataset];
    }
    return static_cast<std::size_t>(
        std::max_element(hist.begin(), hist.end()) - hist.begin());
  };
  EXPECT_EQ(hot_of(0, 1000), 0u);
  EXPECT_EQ(hot_of(1000, 2000), 1u);
  EXPECT_EQ(hot_of(2000, 3000), 2u);
}

}  // namespace
}  // namespace edgerep
