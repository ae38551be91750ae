#include "sim/flows.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "helpers/fixtures.h"
#include "helpers/golden.h"
#include "sim/event_kernel.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace edgerep {
namespace {

TEST(MaxMinRates, SingleFlowGetsFullBottleneck) {
  // Path over links of capacity 4 and 2: the flow runs at 2.
  const auto r = max_min_rates({4.0, 2.0}, {{0, 1}});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_NEAR(r[0], 2.0, 1e-12);
}

TEST(MaxMinRates, EqualSharingOnSharedLink) {
  // Two flows on the same 6-GB/s link: 3 each.
  const auto r = max_min_rates({6.0}, {{0}, {0}});
  EXPECT_NEAR(r[0], 3.0, 1e-12);
  EXPECT_NEAR(r[1], 3.0, 1e-12);
}

TEST(MaxMinRates, ClassicThreeFlowExample) {
  // Links: A(cap 10) and B(cap 4).  Flow 1 uses A only, flows 2 and 3 use
  // both.  Max-min: flows 2,3 bottlenecked at B → 2 each; flow 1 takes the
  // rest of A → 6.
  const auto r = max_min_rates({10.0, 4.0}, {{0}, {0, 1}, {0, 1}});
  EXPECT_NEAR(r[1], 2.0, 1e-12);
  EXPECT_NEAR(r[2], 2.0, 1e-12);
  EXPECT_NEAR(r[0], 6.0, 1e-12);
}

TEST(MaxMinRates, EmptyPathIsUnconstrained) {
  const auto r = max_min_rates({1.0}, {{}, {0}});
  EXPECT_EQ(r[0], kUnconstrainedRate);
  EXPECT_NEAR(r[1], 1.0, 1e-12);
}

TEST(MaxMinRates, NoFlows) {
  EXPECT_TRUE(max_min_rates({1.0, 2.0}, {}).empty());
}

TEST(MaxMinRates, AllocationIsFeasibleAndPareto) {
  // Random-ish structured case: verify link loads never exceed capacity
  // and every flow is bottlenecked somewhere (Pareto efficiency).
  const std::vector<double> caps{5.0, 3.0, 7.0, 2.0};
  const std::vector<std::vector<EdgeId>> paths{
      {0, 1}, {1, 2}, {0, 2, 3}, {3}, {2}};
  const auto r = max_min_rates(caps, paths);
  std::vector<double> load(caps.size(), 0.0);
  for (std::size_t f = 0; f < paths.size(); ++f) {
    for (const EdgeId e : paths[f]) load[e] += r[f];
  }
  for (std::size_t e = 0; e < caps.size(); ++e) {
    EXPECT_LE(load[e], caps[e] + 1e-9);
  }
  for (std::size_t f = 0; f < paths.size(); ++f) {
    bool bottlenecked = false;
    for (const EdgeId e : paths[f]) {
      bottlenecked |= load[e] >= caps[e] - 1e-9;
    }
    EXPECT_TRUE(bottlenecked) << "flow " << f << " could still grow";
  }
}

/// Engine test harness: `at(t, step)` schedules a step (FIFO with the
/// engine's own events at one instant); run() drains the queue, recording
/// each flow tag's delivery instant.
struct FlowHarness {
  TypedEventQueue queue;
  FlowEngine engine;
  std::vector<std::function<void()>> steps;
  std::map<std::uint32_t, double> done;  ///< tag -> delivery instant

  explicit FlowHarness(std::vector<double> caps)
      : engine(queue, std::move(caps)) {}

  void at(double t, std::function<void()> step) {
    queue.push_dynamic(EvKind::kArrival, t,
                       static_cast<std::uint32_t>(steps.size()), 0);
    steps.push_back(std::move(step));
  }

  void run() {
    SimEvent ev;
    while (queue.pop(&ev)) {
      if (ev.kind == EvKind::kArrival) {
        steps[ev.a]();
      } else {
        const std::uint32_t tag = engine.handle_event(ev);
        if (tag != FlowEngine::kNoFlow) done[tag] = queue.now();
      }
    }
  }
};

TEST(FlowEngine, SingleFlowCompletionTime) {
  FlowHarness h({2.0});  // 2 GB/s
  h.at(0.0, [&] { h.engine.start_flow(6.0, {0}, /*tag=*/1); });
  h.run();
  EXPECT_NEAR(h.done.at(1), 3.0, 1e-9);
  EXPECT_EQ(h.engine.active_flows(), 0u);
}

TEST(FlowEngine, TwoFlowsShareThenSpeedUp) {
  // Flows of 4 GB and 2 GB on one 2-GB/s link, both start at t=0: share at
  // 1 GB/s until the small one finishes at t=2, then the big one runs at 2:
  // remaining 2 GB → done at t=3.
  FlowHarness h({2.0});
  h.at(0.0, [&] {
    h.engine.start_flow(4.0, {0}, /*tag=*/1);  // big
    h.engine.start_flow(2.0, {0}, /*tag=*/2);  // small
  });
  h.run();
  EXPECT_NEAR(h.done.at(2), 2.0, 1e-9);
  EXPECT_NEAR(h.done.at(1), 3.0, 1e-9);
}

TEST(FlowEngine, LateArrivalSlowsExistingFlow) {
  // Flow A (4 GB) alone on a 2-GB/s link from t=0; flow B (2 GB) joins at
  // t=1.  A has 2 GB left at t=1, both then run at 1 GB/s: A and B are
  // both done at t=3.
  FlowHarness h({2.0});
  h.at(0.0, [&] { h.engine.start_flow(4.0, {0}, /*tag=*/1); });
  h.at(1.0, [&] { h.engine.start_flow(2.0, {0}, /*tag=*/2); });
  h.run();
  EXPECT_NEAR(h.done.at(1), 3.0, 1e-9);
  EXPECT_NEAR(h.done.at(2), 3.0, 1e-9);
}

TEST(FlowEngine, ZeroSizeAndEmptyPathCompleteImmediately) {
  FlowHarness h({1.0});
  h.at(5.0, [&] {
    h.engine.start_flow(0.0, {0}, /*tag=*/1);
    h.engine.start_flow(3.0, {}, /*tag=*/2);
  });
  h.run();
  EXPECT_EQ(h.done.size(), 2u);
  EXPECT_DOUBLE_EQ(h.done.at(1), 5.0);
  EXPECT_DOUBLE_EQ(h.done.at(2), 5.0);
  EXPECT_DOUBLE_EQ(h.queue.now(), 5.0);
}

TEST(FlowEngine, RejectsBadInputs) {
  TypedEventQueue q;
  EXPECT_THROW(FlowEngine(q, {0.0}), std::invalid_argument);
  FlowEngine fe(q, {1.0});
  EXPECT_THROW(fe.start_flow(1.0, {7}, 0u), std::invalid_argument);
}

TEST(MaxMinRates, PerFlowCapBindsBeforeTheLink) {
  // Two flows on a 6-GB/s link; flow 0 is capped at 1 GB/s.  Progressive
  // filling freezes flow 0 at its cap and gives the rest to flow 1.
  const std::vector<double> rates =
      max_min_rates({6.0}, {{0}, {0}}, {1.0, kUnconstrainedRate});
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);
  EXPECT_DOUBLE_EQ(rates[1], 5.0);
}

TEST(MaxMinRates, UnconstrainedCapsMatchTheCaplessOverload) {
  const std::vector<double> capacity{3.0, 1.0};
  const std::vector<std::vector<EdgeId>> paths{{0}, {0, 1}, {1}};
  const std::vector<double> capless = max_min_rates(capacity, paths);
  const std::vector<double> capped = max_min_rates(
      capacity, paths,
      {kUnconstrainedRate, kUnconstrainedRate, kUnconstrainedRate});
  ASSERT_EQ(capless.size(), capped.size());
  for (std::size_t i = 0; i < capless.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(capless[i]),
              std::bit_cast<std::uint64_t>(capped[i]))
        << "flow " << i;
  }
}

TEST(FlowEngine, RateCapBindsBelowLinkCapacity) {
  // 4 GB over a 2-GB/s link, but the flow itself is capped at 1 GB/s: it
  // must take 4 s, not 2 — the contract that makes the online backend's
  // uncontended flows land exactly on their table-priced delay.
  FlowHarness h({2.0});
  h.at(0.0, [&] {
    h.engine.start_flow(4.0, {0}, /*tag=*/0, /*rate_cap=*/1.0);
  });
  h.run();
  EXPECT_NEAR(h.done.at(0), 4.0, 1e-9);
}

TEST(FlowEngine, CancelFreesBandwidthAndStaysSilent) {
  // Two 4-GB flows share a 2-GB/s link (1 GB/s each).  Cancelling B at t=1
  // must (a) never deliver B's completion, (b) emit no listener record for
  // B, and (c) refill A to the full 2 GB/s: 3 GB left at t=1 → done 2.5.
  FlowHarness h({2.0});
  std::vector<std::pair<std::uint32_t, double>> listener_calls;  // tag, rate
  h.engine.set_rate_listener(
      [&](std::uint32_t tag, double, double rate, double, EdgeId) {
        listener_calls.emplace_back(tag, rate);
      });
  std::uint32_t b_slot = FlowEngine::kNoFlow;
  h.at(0.0, [&] {
    h.engine.start_flow(4.0, {0}, /*tag=*/1);
    b_slot = h.engine.start_flow(4.0, {0}, /*tag=*/2);
  });
  h.at(1.0, [&] { h.engine.cancel(b_slot); });
  h.run();
  EXPECT_NEAR(h.done.at(1), 2.5, 1e-9);
  EXPECT_EQ(h.done.count(2), 0u);
  EXPECT_EQ(h.engine.active_flows(), 0u);
  // B appears only in the shared-fill transitions (rate > 0) before the
  // cancel; the cancel itself and B's would-be retirement stay silent, so
  // no rate-0 record ever carries B's tag.
  ASSERT_FALSE(listener_calls.empty());
  for (const auto& [tag, rate] : listener_calls) {
    if (tag == 2) {
      EXPECT_GT(rate, 0.0) << "cancelled flow emitted a record";
    }
  }
  // A's retirement is the last record.
  EXPECT_EQ(listener_calls.back().first, 1u);
  EXPECT_DOUBLE_EQ(listener_calls.back().second, 0.0);
}

TEST(FlowEngine, LinkCapacityDropMidFlowStretchesCompletion) {
  // 4 GB at 2 GB/s: 2 GB done by t=1.  Dropping the link to 0.5 GB/s then
  // stretches the remaining 2 GB to 4 more seconds → done at t=5.
  FlowHarness h({2.0});
  h.at(0.0, [&] { h.engine.start_flow(4.0, {0}, /*tag=*/0); });
  h.at(1.0, [&] { h.engine.set_link_capacity(0, 0.5); });
  h.run();
  EXPECT_NEAR(h.done.at(0), 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.engine.link_capacity(0), 0.5);
  EXPECT_THROW(h.engine.set_link_capacity(0, 0.0), std::invalid_argument);
}

TEST(FlowEngine, RateListenerReportsTransitionsAndRetirements) {
  // Share-then-speed-up (small 2 GB + big 4 GB on a 2-GB/s link) seen
  // through the listener: every rate change carries the saturated link,
  // every retirement carries rate 0 at the actual completion instant.
  struct Call {
    std::uint32_t tag;
    double time;
    double rate;
    double remaining;
    EdgeId bottleneck;
  };
  FlowHarness h({2.0});
  std::vector<Call> calls;
  h.engine.set_rate_listener([&](std::uint32_t tag, double time, double rate,
                                 double remaining, EdgeId bottleneck) {
    calls.push_back({tag, time, rate, remaining, bottleneck});
  });
  h.at(0.0, [&] {
    h.engine.start_flow(4.0, {0}, /*tag=*/10);  // big
    h.engine.start_flow(2.0, {0}, /*tag=*/20);  // small
  });
  h.run();
  // big alone at 2, both refilled to 1, small retires at t=2, big refilled
  // back to 2, big retires at t=3.
  ASSERT_EQ(calls.size(), 6u);
  EXPECT_EQ(calls[0].tag, 10u);
  EXPECT_DOUBLE_EQ(calls[0].rate, 2.0);
  EXPECT_EQ(calls[0].bottleneck, 0u);
  EXPECT_DOUBLE_EQ(calls[1].rate, 1.0);
  EXPECT_DOUBLE_EQ(calls[2].rate, 1.0);
  EXPECT_EQ(calls[3].tag, 20u);  // small's retirement
  EXPECT_DOUBLE_EQ(calls[3].time, 2.0);
  EXPECT_DOUBLE_EQ(calls[3].rate, 0.0);
  EXPECT_DOUBLE_EQ(calls[3].remaining, 0.0);
  EXPECT_EQ(calls[4].tag, 10u);
  EXPECT_DOUBLE_EQ(calls[4].rate, 2.0);
  EXPECT_EQ(calls[5].tag, 10u);  // big's retirement
  EXPECT_DOUBLE_EQ(calls[5].time, 3.0);
  EXPECT_DOUBLE_EQ(calls[5].rate, 0.0);
}

TEST(FlowEngine, CapFrozenFlowReportsInvalidEdgeBottleneck) {
  // A flow frozen by its own rate cap (1 GB/s on a 2-GB/s link) has no
  // saturated link to blame: the listener must carry kInvalidEdge.
  FlowHarness h({2.0});
  EdgeId seen = 0;
  h.engine.set_rate_listener(
      [&](std::uint32_t, double, double rate, double, EdgeId bottleneck) {
        if (rate > 0.0) seen = bottleneck;
      });
  h.at(0.0, [&] {
    h.engine.start_flow(2.0, {0}, /*tag=*/0, /*rate_cap=*/1.0);
  });
  h.run();
  EXPECT_EQ(seen, kInvalidEdge);
}

TEST(FlowEngine, StartAtAnotherFlowsCompletionInstant) {
  // B (4 GB alone at 2 GB/s) completes at exactly t=2 — the same instant C
  // starts.  Whichever order the queue pops them, B's bandwidth is free
  // for C: C (2 GB) must finish at t=3.
  FlowHarness h({2.0});
  h.at(0.0, [&] { h.engine.start_flow(4.0, {0}, /*tag=*/1); });
  h.at(2.0, [&] { h.engine.start_flow(2.0, {0}, /*tag=*/2); });
  h.run();
  EXPECT_NEAR(h.done.at(1), 2.0, 1e-9);
  EXPECT_NEAR(h.done.at(2), 3.0, 1e-9);
  EXPECT_EQ(h.engine.active_flows(), 0u);
}

// Randomized workload driver shared by the engine-equivalence tests below:
// `starts[i]` = (time, size, path).  Returns each flow's completion time.
struct FlowStart {
  double time;
  double size;
  std::vector<EdgeId> path;
};

std::vector<FlowStart> random_starts(std::uint64_t seed, std::size_t links,
                                     std::size_t flows) {
  Rng rng(seed);
  std::vector<FlowStart> starts;
  starts.reserve(flows);
  double t = 0.0;
  for (std::size_t i = 0; i < flows; ++i) {
    t += rng.exponential(2.0);
    FlowStart fs;
    fs.time = t;
    fs.size = rng.uniform(0.1, 4.0);
    const std::size_t hops = static_cast<std::size_t>(rng.uniform_u64(1, 3));
    const std::size_t first =
        static_cast<std::size_t>(rng.uniform_u64(0, links - 1));
    for (std::size_t h = 0; h < hops; ++h) {
      fs.path.push_back(static_cast<EdgeId>((first + h) % links));
    }
    starts.push_back(std::move(fs));
  }
  return starts;
}

/// Raw bits of every completion instant, as one golden token.
std::string completions_fp(const std::vector<double>& done) {
  std::string bytes;
  for (const double t : done) bytes += testing::bits(t);
  return testing::hex64(testing::fnv1a(bytes));
}

std::vector<double> drive(const std::vector<FlowStart>& starts,
                          const std::vector<double>& caps,
                          FlowEngine::Recompute mode) {
  FlowHarness h(caps);
  h.engine.set_recompute_mode(mode);
  for (std::size_t i = 0; i < starts.size(); ++i) {
    h.at(starts[i].time, [&h, &starts, i] {
      h.engine.start_flow(starts[i].size, starts[i].path,
                          static_cast<std::uint32_t>(i));
    });
  }
  h.run();
  EXPECT_EQ(h.engine.active_flows(), 0u);
  std::vector<double> done(starts.size(), -1.0);
  for (const auto& [tag, t] : h.done) done[tag] = t;
  return done;
}

TEST(FlowEngineEquivalence, IncrementalMatchesFullRecomputeBitForBit) {
  // The incremental engine refills only the changed component; the full
  // mode refills everything.  Rates are a pure function of component
  // membership, so every completion instant must agree bit for bit.
  for (const std::uint64_t seed : {7u, 19u, 140u, 4111u}) {
    const std::vector<double> caps(12, 1.5);
    const auto starts = random_starts(seed, caps.size(), 120);
    const auto inc = drive(starts, caps, FlowEngine::Recompute::kIncremental);
    const auto full = drive(starts, caps, FlowEngine::Recompute::kFull);
    for (std::size_t i = 0; i < starts.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(inc[i]),
                std::bit_cast<std::uint64_t>(full[i]))
          << "flow " << i << " seed " << seed << ": " << inc[i] << " vs "
          << full[i];
    }
  }
}

// A sparse workload: many links and 1–4-hop paths, so most flows are alone
// on every link they cross, with cancels and capacity changes mixed in.
// One op per step: a start, a cancel of an earlier start (applied only
// while that flow is live), or a link capacity change.
struct SparseOp {
  enum class Kind : std::uint8_t { kStart, kCancel, kCapacity };
  Kind kind = Kind::kStart;
  double time = 0.0;
  double size = 0.0;         // kStart
  std::vector<EdgeId> path;  // kStart
  std::uint32_t start = 0;   // kCancel: tag of the cancelled start
  EdgeId link = 0;           // kCapacity
  double capacity = 0.0;     // kCapacity
};

std::vector<SparseOp> sparse_ops(std::uint64_t seed, std::size_t links,
                                 std::size_t steps) {
  Rng rng(seed);
  std::vector<SparseOp> ops;
  std::vector<std::vector<EdgeId>> start_paths;
  std::uint32_t starts = 0;
  double t = 0.0;
  for (std::size_t i = 0; i < steps; ++i) {
    t += rng.exponential(3.0);
    SparseOp op;
    op.time = t;
    const double u = rng.uniform();
    // Cancels and most capacity changes aim at one of the last four
    // starts, which are likely still live.
    const auto recent = [&] {
      const std::uint64_t back =
          rng.uniform_u64(0, std::min<std::uint32_t>(starts, 4) - 1);
      return static_cast<std::uint32_t>(starts - 1 - back);
    };
    if (starts > 0 && u < 0.15) {
      op.kind = SparseOp::Kind::kCancel;
      op.start = recent();
    } else if (u < 0.3) {
      op.kind = SparseOp::Kind::kCapacity;
      op.link = static_cast<EdgeId>(rng.uniform_u64(0, links - 1));
      if (starts > 0 && u < 0.27) {
        const std::vector<EdgeId>& p = start_paths[recent()];
        op.link = p[rng.uniform_u64(0, p.size() - 1)];
      }
      op.capacity = rng.uniform(0.5, 3.0);
    } else {
      op.size = rng.uniform(0.2, 3.0);
      const std::size_t hops = static_cast<std::size_t>(rng.uniform_u64(1, 4));
      for (std::size_t h = 0; h < hops; ++h) {
        op.path.push_back(static_cast<EdgeId>(rng.uniform_u64(0, links - 1)));
      }
      if (starts == 7) op.path = {3, 11, 3};  // a path that repeats an edge
      start_paths.push_back(op.path);
      ++starts;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

struct SparseRun {
  /// Every rate-listener call as raw bits: tag, time, rate, remaining,
  /// bottleneck.
  std::vector<std::uint64_t> stream;
  std::vector<double> done;  ///< per start tag; -1 when cancelled
  std::size_t lone_cancels = 0;
  std::size_t shared_cancels = 0;
  std::size_t lone_capacity_changes = 0;
  std::size_t shared_capacity_changes = 0;
};

SparseRun drive_sparse(const std::vector<SparseOp>& ops,
                       const std::vector<double>& caps,
                       FlowEngine::Recompute mode) {
  FlowHarness h(caps);
  h.engine.set_recompute_mode(mode);
  SparseRun run;
  h.engine.set_rate_listener([&run](std::uint32_t tag, double time,
                                    double rate, double remaining,
                                    EdgeId bottleneck) {
    run.stream.push_back(tag);
    run.stream.push_back(std::bit_cast<std::uint64_t>(time));
    run.stream.push_back(std::bit_cast<std::uint64_t>(rate));
    run.stream.push_back(std::bit_cast<std::uint64_t>(remaining));
    run.stream.push_back(bottleneck);
  });
  std::vector<const std::vector<EdgeId>*> paths;  // per start tag
  std::vector<std::uint32_t> slot;                // per start tag
  std::vector<char> cancelled;
  const auto live = [&](std::uint32_t tag) {
    return !cancelled[tag] && h.done.count(tag) == 0;
  };
  // Live flows other than `self` on link e.
  const auto others_on = [&](EdgeId e, std::uint32_t self) {
    std::size_t n = 0;
    for (std::uint32_t g = 0; g < paths.size(); ++g) {
      if (g == self || !live(g)) continue;
      for (const EdgeId x : *paths[g]) n += x == e ? 1 : 0;
    }
    return n;
  };
  for (const SparseOp& op : ops) {
    h.at(op.time, [&, op_ptr = &op] {
      const SparseOp& o = *op_ptr;
      switch (o.kind) {
        case SparseOp::Kind::kStart:
          paths.push_back(&o.path);
          cancelled.push_back(0);
          slot.push_back(h.engine.start_flow(
              o.size, o.path, static_cast<std::uint32_t>(slot.size())));
          break;
        case SparseOp::Kind::kCancel: {
          if (!live(o.start)) break;
          bool shared = false;
          for (const EdgeId e : *paths[o.start]) {
            shared |= others_on(e, o.start) > 0;
          }
          ++(shared ? run.shared_cancels : run.lone_cancels);
          cancelled[o.start] = 1;
          h.engine.cancel(slot[o.start]);
          break;
        }
        case SparseOp::Kind::kCapacity: {
          const std::size_t users = others_on(o.link, FlowEngine::kNoFlow);
          if (users == 1) ++run.lone_capacity_changes;
          if (users > 1) ++run.shared_capacity_changes;
          h.engine.set_link_capacity(o.link, o.capacity);
          break;
        }
      }
    });
  }
  h.run();
  EXPECT_EQ(h.engine.active_flows(), 0u);
  run.done.assign(slot.size(), -1.0);
  for (const auto& [tag, t] : h.done) run.done[tag] = t;
  return run;
}

TEST(FlowEngineEquivalence, SparseLoneFlowsMatchFullRecomputeBitForBit) {
  // Most components hold one flow here, so most re-fills take the
  // incremental engine's lone-flow path; the full mode gathers every
  // component.  Every listener call and every completion must agree bit
  // for bit, cancels and capacity changes on lone and shared flows
  // included.
  for (const std::uint64_t seed : {3u, 58u, 907u}) {
    const std::vector<double> caps(64, 1.0);
    const auto ops = sparse_ops(seed, caps.size(), 400);
    const SparseRun inc =
        drive_sparse(ops, caps, FlowEngine::Recompute::kIncremental);
    const SparseRun full =
        drive_sparse(ops, caps, FlowEngine::Recompute::kFull);
    ASSERT_EQ(inc.stream.size(), full.stream.size()) << "seed " << seed;
    for (std::size_t i = 0; i < inc.stream.size(); ++i) {
      ASSERT_EQ(inc.stream[i], full.stream[i])
          << "seed " << seed << ": listener call " << i / 5 << " field "
          << i % 5;
    }
    ASSERT_EQ(inc.done.size(), full.done.size());
    for (std::size_t i = 0; i < inc.done.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(inc.done[i]),
                std::bit_cast<std::uint64_t>(full.done[i]))
          << "seed " << seed << " flow " << i;
    }
    // The workload reaches every case it is meant to cover.
    EXPECT_GT(inc.lone_cancels, 0u) << "seed " << seed;
    EXPECT_GT(inc.shared_cancels, 0u) << "seed " << seed;
    EXPECT_GT(inc.lone_capacity_changes, 0u) << "seed " << seed;
    EXPECT_GT(inc.shared_capacity_changes, 0u) << "seed " << seed;
  }
}

TEST(FlowEngineEquivalence, TypedEventsMatchClosureCompletionsBitForBit) {
  // A random schedule's completion instants, bit for bit, against the
  // golden pinned in tests/golden/online_hashes.txt.
  const std::vector<double> caps(8, 2.0);
  const auto starts = random_starts(77, caps.size(), 80);
  const auto done = drive(starts, caps, FlowEngine::Recompute::kIncremental);
  testing::expect_golden("flowengine/random77", completions_fp(done));
}

TEST(FlowEngineEquivalence, TypedTrivialFlowsDeliverTags) {
  TypedEventQueue q;
  FlowEngine fe(q, {1.0});
  fe.start_flow(0.0, {0}, 5u);   // zero size
  fe.start_flow(3.0, {}, 6u);    // empty path
  std::vector<std::uint32_t> tags;
  SimEvent ev;
  while (q.pop(&ev)) {
    const std::uint32_t tag = fe.handle_event(ev);
    if (tag != FlowEngine::kNoFlow) tags.push_back(tag);
  }
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0], 5u);
  EXPECT_EQ(tags[1], 6u);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  EXPECT_EQ(fe.active_flows(), 0u);
}

TEST(SimulatorFlows, UncontendedFlowNoSlowerThanDelayModel) {
  // Pipelined flow transfer finishes no later than store-and-forward for a
  // single uncontended query.
  const Instance inst = testing::TinyFixture::make(/*deadline=*/3.0);
  ReplicaPlan plan(inst);
  plan.place_replica(0, 1);
  plan.assign(0, 0, 1);
  SimConfig delay_cfg;
  delay_cfg.arrivals = SimConfig::Arrivals::kAllAtOnce;
  SimConfig flow_cfg = delay_cfg;
  flow_cfg.transfers = SimConfig::TransferModel::kMaxMinFair;
  const SimReport d = simulate(plan, delay_cfg);
  const SimReport f = simulate(plan, flow_cfg);
  EXPECT_LE(f.outcomes[0].response_delay(),
            d.outcomes[0].response_delay() + 1e-9);
  EXPECT_TRUE(f.outcomes[0].fully_served);
}

TEST(SimulatorFlows, WholeWorkloadRunsUnderFlowModel) {
  // Bursty arrivals force concurrent flows sharing links; every fully
  // assigned query must still complete (flows always make progress on
  // positive-capacity links), and nothing else may.
  const Instance inst = testing::medium_instance(62, /*f_max=*/3);
  // First-fit valid plan, independent of the core algorithm.
  ReplicaPlan p(inst);
  for (const Query& q : inst.queries()) {
    for (const DatasetDemand& dd : q.demands) {
      for (const Site& s : inst.sites()) {
        if (p.assignment(q.id, dd.dataset)) break;
        const double need = resource_demand(inst, q, dd);
        if (!deadline_ok(inst, q, dd, s.id) || !p.fits(s.id, need)) continue;
        if (!p.has_replica(dd.dataset, s.id)) {
          if (p.replica_count(dd.dataset) >= inst.max_replicas()) continue;
          p.place_replica(dd.dataset, s.id);
        }
        p.assign(q.id, dd.dataset, s.id);
      }
    }
  }
  SimConfig cfg;
  cfg.transfers = SimConfig::TransferModel::kMaxMinFair;
  cfg.arrivals = SimConfig::Arrivals::kPoisson;
  cfg.arrival_rate = 10.0;
  const SimReport rep = simulate(p, cfg);
  for (const QueryOutcome& o : rep.outcomes) {
    bool all_assigned = true;
    for (const DatasetDemand& dd : inst.query(o.query).demands) {
      all_assigned &= p.assignment(o.query, dd.dataset).has_value();
    }
    EXPECT_EQ(o.fully_served, all_assigned);
  }
}

}  // namespace
}  // namespace edgerep
