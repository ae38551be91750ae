#include "sim/event_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "helpers/fixtures.h"
#include "helpers/golden.h"
#include "sim/online.h"
#include "util/rng.h"

namespace edgerep {
namespace {

SimEvent ev(EvKind kind, double time, std::uint64_t seq, std::uint32_t a = 0,
            std::uint32_t b = 0, double c = 0.0) {
  return SimEvent{time, seq, a, b, c, kind};
}

TEST(TypedEventQueue, PopsInTimeOrder) {
  TypedEventQueue q;
  q.push(ev(EvKind::kArrival, 3.0, evseq::make(evseq::kArrivalBand, 0)));
  q.push(ev(EvKind::kArrival, 1.0, evseq::make(evseq::kArrivalBand, 1)));
  q.push(ev(EvKind::kArrival, 2.0, evseq::make(evseq::kArrivalBand, 2)));
  SimEvent out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_DOUBLE_EQ(out.time, 1.0);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_DOUBLE_EQ(out.time, 2.0);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_DOUBLE_EQ(out.time, 3.0);
  EXPECT_FALSE(q.pop(&out));
  EXPECT_EQ(q.events_popped(), 3u);
}

TEST(TypedEventQueue, SimultaneousEventsOrderByBandThenCounter) {
  // At one instant: a status tick, a dynamic completion, an arrival, and a
  // fault, pushed in scrambled order.  They must pop fault < arrival <
  // dynamic < status — the event core's band order.
  TypedEventQueue q;
  q.push_status(5.0);
  q.push_dynamic(EvKind::kComputeDone, 5.0, 7, 1);
  q.push(ev(EvKind::kArrival, 5.0, evseq::make(evseq::kArrivalBand, 3), 3));
  q.push(ev(EvKind::kFaultApply, 5.0, evseq::make(evseq::kFaultBand, 0), 0));
  SimEvent out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kFaultApply);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kArrival);
  EXPECT_EQ(out.a, 3u);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kComputeDone);
  EXPECT_EQ(out.a, 7u);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kStatusTick);
  EXPECT_FALSE(q.pop(&out));
}

TEST(TypedEventQueue, FaultBeatsArrivalRegardlessOfPushOrder) {
  // The lazy streams push in whatever order handlers run; the banded seq
  // alone must give fault-before-arrival at an equal instant.
  TypedEventQueue q;
  q.push(ev(EvKind::kArrival, 2.0, evseq::make(evseq::kArrivalBand, 0), 0));
  q.push(ev(EvKind::kFaultApply, 2.0, evseq::make(evseq::kFaultBand, 4), 4));
  SimEvent out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kFaultApply);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kArrival);
}

TEST(TypedEventQueue, DynamicEventsKeepScheduleCallOrderAtOneInstant) {
  TypedEventQueue q;
  for (std::uint32_t i = 0; i < 8; ++i) {
    q.push_dynamic(EvKind::kComputeDone, 1.0, i, 0);
  }
  SimEvent out;
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.pop(&out));
    EXPECT_EQ(out.a, i);
  }
}

TEST(TypedEventQueue, ImmediatesDrainFifoBeforeHeap) {
  TypedEventQueue q;
  q.push(ev(EvKind::kArrival, 1.0, evseq::make(evseq::kArrivalBand, 0)));
  SimEvent out;
  ASSERT_TRUE(q.pop(&out));  // now == 1.0
  q.post(ev(EvKind::kRelocate, 0.0, 0, 10, 0, 2.5));
  q.post(ev(EvKind::kRelocate, 0.0, 0, 11, 1, 3.5));
  q.push(ev(EvKind::kArrival, 1.0, evseq::make(evseq::kArrivalBand, 1)));
  // Immediates run first even though a heap event is ready at this instant,
  // and they are stamped with the current time.
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kRelocate);
  EXPECT_EQ(out.a, 10u);
  EXPECT_DOUBLE_EQ(out.time, 1.0);
  EXPECT_DOUBLE_EQ(out.c, 2.5);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.a, 11u);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.kind, EvKind::kArrival);
  EXPECT_EQ(q.events_popped(), 4u);
}

TEST(TypedEventQueue, PopImmediateOnlyTouchesTheRing) {
  TypedEventQueue q;
  q.push(ev(EvKind::kArrival, 1.0, evseq::make(evseq::kArrivalBand, 0)));
  SimEvent out;
  EXPECT_FALSE(q.pop_immediate(&out));  // heap event is not an immediate
  q.post(ev(EvKind::kRelocate, 0.0, 0, 1, 0, 0.0));
  EXPECT_TRUE(q.pop_immediate(&out));
  EXPECT_EQ(out.kind, EvKind::kRelocate);
  EXPECT_FALSE(q.pop_immediate(&out));
  EXPECT_EQ(q.pending(), 1u);  // the heap event is still there
}

TEST(TypedEventQueue, RandomizedHeapDrainsSorted) {
  TypedEventQueue q;
  Rng rng(0xE7E7);
  std::vector<double> times;
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    times.push_back(t);
    q.push_dynamic(EvKind::kComputeDone, t, static_cast<std::uint32_t>(i), 0);
  }
  std::sort(times.begin(), times.end());
  SimEvent out;
  SimEvent prev{};
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(q.pop(&out));
    EXPECT_DOUBLE_EQ(out.time, times[static_cast<std::size_t>(i)]);
    if (i > 0) {
      EXPECT_TRUE(event_before(prev, out));
    }
    prev = out;
  }
  EXPECT_FALSE(q.pop(&out));
  EXPECT_EQ(q.peak_pending(), 2000u);
  EXPECT_GE(q.peak_bytes(), 2000u * sizeof(SimEvent));
}

TEST(TypedEventQueue, PeakPendingTracksHighWater) {
  TypedEventQueue q;
  q.push_dynamic(EvKind::kComputeDone, 1.0, 0, 0);
  q.push_dynamic(EvKind::kComputeDone, 2.0, 1, 0);
  SimEvent out;
  ASSERT_TRUE(q.pop(&out));
  ASSERT_TRUE(q.pop(&out));
  q.push_dynamic(EvKind::kComputeDone, 3.0, 2, 0);
  EXPECT_EQ(q.peak_pending(), 2u);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(FlightSlab, StaleHandleDereferencesToNull) {
  FlightSlab slab;
  const FlightHandle h = slab.create();
  ASSERT_NE(slab.get(h), nullptr);
  slab.destroy(h);
  EXPECT_EQ(slab.get(h), nullptr);  // generation bumped on destroy
  EXPECT_EQ(slab.live_count(), 0u);
}

TEST(FlightSlab, ReusedSlotInvalidatesOldHandles) {
  FlightSlab slab;
  const FlightHandle a = slab.create();
  slab.destroy(a);
  const FlightHandle b = slab.create();
  EXPECT_EQ(b.slot, a.slot);  // free list reuses the slot...
  EXPECT_NE(b.gen, a.gen);    // ...under a new generation
  EXPECT_EQ(slab.get(a), nullptr);
  EXPECT_NE(slab.get(b), nullptr);
  EXPECT_EQ(slab.slot_count(), 1u);
}

TEST(FlightSlab, LiveListIteratesInCreationOrderAcrossReuse) {
  FlightSlab slab;
  const FlightHandle a = slab.create();
  const FlightHandle b = slab.create();
  const FlightHandle c = slab.create();
  slab.destroy(b);
  // Reuses b's slot, but the new flight is the *youngest*: it must appear
  // last in the live list, and its birth must exceed everyone else's.
  const FlightHandle d = slab.create();
  EXPECT_EQ(d.slot, b.slot);
  std::vector<std::uint32_t> order;
  for (std::uint32_t s = slab.live_head(); s != kNilSlot;
       s = slab.at(s).next) {
    order.push_back(s);
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], a.slot);
  EXPECT_EQ(order[1], c.slot);
  EXPECT_EQ(order[2], d.slot);
  EXPECT_LT(slab.at(a.slot).birth, slab.at(c.slot).birth);
  EXPECT_LT(slab.at(c.slot).birth, slab.at(d.slot).birth);
  EXPECT_EQ(slab.peak_live(), 3u);
}

TEST(FlightSlab, DestroyHeadAndTailKeepListConsistent) {
  FlightSlab slab;
  const FlightHandle a = slab.create();
  const FlightHandle b = slab.create();
  const FlightHandle c = slab.create();
  slab.destroy(a);  // head
  slab.destroy(c);  // tail
  EXPECT_EQ(slab.live_head(), b.slot);
  EXPECT_EQ(slab.at(b.slot).next, kNilSlot);
  EXPECT_EQ(slab.live_count(), 1u);
  slab.destroy(b);
  EXPECT_EQ(slab.live_head(), kNilSlot);
}

// --- event-core edge regimes through the public run_online surface --------

TEST(TypedKernel, FaultAtArrivalInstantResolvesFaultFirst) {
  // Uniform arrivals at rate 1 land at exactly t = 1, 2, 3 (exact doubles).
  // A site crash at exactly t = 1 must apply before query 0 is admitted —
  // with the only feasible site down, the query is rejected.
  Graph g;
  const NodeId cl = g.add_node(NodeRole::kCloudlet);
  Instance inst(std::move(g));
  const SiteId s = inst.add_site(cl, 4.0, 0.05);
  const DatasetId d = inst.add_dataset(4.0, s);
  inst.add_query(s, 1.0, 2.0, {{d, 0.5}});
  inst.set_max_replicas(1);
  inst.finalize();
  OnlineConfig cfg;
  cfg.arrivals = OnlineConfig::Arrivals::kUniform;
  cfg.arrival_rate = 1.0;
  cfg.faults.events.push_back(
      FaultEvent{1.0, FaultKind::kSiteDown, s, kInvalidEdge, 0.0});
  const OnlineResult r = run_online(inst, cfg);
  EXPECT_EQ(r.admitted_queries, 0u);
  EXPECT_FALSE(r.outcomes[0].admitted);
  EXPECT_EQ(r.fault_events_applied, 1u);
  testing::expect_golden("kernel/FaultAtArrivalInstant", testing::online_fp(r));
}

TEST(TypedKernel, EmptyTraceMatchesFaultFreeRunBitForBit) {
  const Instance inst = testing::medium_instance(11, /*f_max=*/3);
  OnlineConfig plain;
  OnlineConfig empty_trace;
  empty_trace.faults = FaultTrace{};  // explicitly empty
  const std::uint64_t a = online_result_hash(run_online(inst, plain));
  const std::uint64_t b = online_result_hash(run_online(inst, empty_trace));
  EXPECT_EQ(a, b);
}

TEST(TypedKernel, StaleCompletionsSelfDiscardAfterCrash) {
  // A crash mid-flight leaves the killed flights' completion events in the
  // heap; they must self-discard (no double-release of site capacity).
  // With repair off, the admitted query simply fails.
  Graph g;
  const NodeId cl = g.add_node(NodeRole::kCloudlet);
  Instance inst(std::move(g));
  const SiteId s = inst.add_site(cl, 4.0, 1.0);  // 4 s processing window
  const DatasetId d = inst.add_dataset(4.0, s);
  inst.add_query(s, 1.0, 10.0, {{d, 0.5}});
  inst.set_max_replicas(1);
  inst.finalize();
  OnlineConfig cfg;
  cfg.arrivals = OnlineConfig::Arrivals::kUniform;
  cfg.arrival_rate = 1.0;    // arrival at t = 1, completion due t = 5
  cfg.repair_on_failure = false;
  cfg.faults.events.push_back(
      FaultEvent{2.0, FaultKind::kSiteDown, s, kInvalidEdge, 0.0});
  const OnlineResult r = run_online(inst, cfg);
  EXPECT_EQ(r.queries_failed_by_fault, 1u);
  EXPECT_EQ(r.admitted_queries, 0u);
  EXPECT_TRUE(r.outcomes[0].failed_by_fault);
  testing::expect_golden("kernel/StaleCompletionsAfterCrash",
                         testing::online_fp(r));
}

TEST(TypedKernel, HeapStaysBoundedByConcurrencyNotHorizon) {
  // Up to 60 queries, but the heap holds one pending arrival plus the
  // in-flight completions.
  const Instance inst = testing::medium_instance(3, /*f_max=*/2);
  const OnlineResult r = run_online(inst, OnlineConfig{});
  EXPECT_LT(r.kernel_stats.peak_pending_events, inst.queries().size());
  EXPECT_LE(r.kernel_stats.peak_pending_events,
            r.kernel_stats.peak_flights + 2);
  testing::expect_golden("kernel/HeapBounded", testing::online_fp(r));
}

}  // namespace
}  // namespace edgerep
