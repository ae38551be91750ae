// The event core: a typed, allocation-free discrete-event kernel shared by
// the online simulator (sim/online.h) and the testbed simulator
// (sim/simulator.h).
//
// Events are a tagged-union POD (`SimEvent`) in a 4-ary array heap ordered
// by strict `(time, seq)`: pushing and popping move 40 trivially-copyable
// bytes, and the heap storage is the only allocation (amortized by
// reserve).  Dispatch is a switch on `SimEvent::kind` in the owning run
// loop — subsystems never capture state, they read it from the payload.
//
// Ordering contract (pinned bit for bit by tests/golden/):
//
//  * Events pop in strictly increasing `(time, seq)` order; `seq` never
//    repeats, so simultaneous events have a total order.
//  * `seq` is banded: the high byte encodes the event's scheduling class
//    and the low 56 bits a per-band monotone counter.  At one instant,
//    faults run before arrivals, arrivals before dynamic events
//    (completions, flow wakes), and dynamic events before status ticks;
//    within a band, events run FIFO.  The bands let a run stream arrivals
//    and faults lazily (one pending of each in the heap) without changing
//    that order.
//  * `post()` enqueues an *immediate*: a FIFO ring drained before the next
//    heap pop.  Immediates model work a handler must finish before time
//    advances (e.g. relocating the flights displaced by a crash), keeping
//    it a typed, inspectable event.
//
// `FlightSlab` is the companion registry for in-flight work: slot reuse
// through a free list, generation-stamped handles so a completion event
// scheduled for a killed (or relocated) flight self-discards in O(1), and
// an intrusive doubly-linked live list that iterates survivors in creation
// order, independent of slot reuse.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cloud/types.h"

namespace edgerep {

/// Event taxonomy.  Payloads below are run_online's; simulate() documents
/// its own in sim/simulator.cpp.
enum class EvKind : std::uint8_t {
  kArrival = 0,       ///< a = query id
  kTransferDone = 1,  ///< a = flow slot, b = flow generation (FlowEngine)
  kComputeDone = 2,   ///< a = flight slot, b = flight generation
  kFaultApply = 3,    ///< a = index into the fault trace
  kRelocate = 4,      ///< a = query, b = demand, c = resource need (GHz)
  kStatusTick = 5,    ///< telemetry refresh; no payload
};

/// One scheduled event: a 40-byte POD.  `a`/`b`/`c` are payload registers
/// whose meaning is given by `kind` (see EvKind).
struct SimEvent {
  double time = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double c = 0.0;
  EvKind kind = EvKind::kArrival;
};

/// Scheduling-class bands of the 64-bit seq (high byte).  Within one time
/// instant, lower bands run first; within one band, lower counters run
/// first: faults, then arrivals, then dynamic events, and status ticks
/// (which read state but never write it) drain last.
namespace evseq {
inline constexpr std::uint64_t kFaultBand = 0;
inline constexpr std::uint64_t kArrivalBand = 1;
inline constexpr std::uint64_t kDynamicBand = 2;
inline constexpr std::uint64_t kStatusBand = 3;
inline constexpr unsigned kBandShift = 56;

[[nodiscard]] constexpr std::uint64_t make(std::uint64_t band,
                                           std::uint64_t counter) noexcept {
  return (band << kBandShift) | counter;
}
}  // namespace evseq

/// Strict (time, seq) order.
[[nodiscard]] inline bool event_before(const SimEvent& x,
                                       const SimEvent& y) noexcept {
  if (x.time != y.time) return x.time < y.time;
  return x.seq < y.seq;
}

/// 4-ary array min-heap of SimEvent plus a FIFO immediates ring.  One
/// vector each; no per-event allocation once the storage is warm.
class TypedEventQueue {
 public:
  /// Current simulated time (seconds).  0 before any timed pop.
  [[nodiscard]] double now() const noexcept { return now_; }

  void reserve(std::size_t events) { heap_.reserve(events); }

  /// Schedule a fully-formed event (caller assigns seq, e.g. for the
  /// fault/arrival bands whose counters are input indices).
  void push(const SimEvent& ev);

  /// Schedule a dynamic event: seq is drawn from the queue's monotone
  /// dynamic-band counter, so simultaneous dynamic events run in
  /// schedule-call order.
  void push_dynamic(EvKind kind, double time, std::uint32_t a,
                    std::uint32_t b, double c = 0.0) {
    push(SimEvent{time, evseq::make(evseq::kDynamicBand, dyn_counter_++), a,
                  b, c, kind});
  }

  /// Schedule a status-band event (sorts after everything else at its
  /// instant).
  void push_status(double time) {
    push(SimEvent{time, evseq::make(evseq::kStatusBand, status_counter_++), 0,
                  0, 0.0, EvKind::kStatusTick});
  }

  /// Enqueue an immediate: runs at now(), FIFO, before any heap event.
  void post(const SimEvent& ev);

  /// Pop the next event (immediates first, then the heap); advances now()
  /// on heap pops.  Returns false when both are empty.
  bool pop(SimEvent* out);

  /// Drain only the immediates ring (used by handlers that must complete
  /// posted work — e.g. displaced-flight relocation — before returning).
  bool pop_immediate(SimEvent* out);

  [[nodiscard]] bool empty() const noexcept {
    return heap_.empty() && ring_head_ == ring_.size();
  }
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() + (ring_.size() - ring_head_);
  }

  /// --- accounting (bench evidence for the O(inflight) memory bound) ----
  [[nodiscard]] std::size_t events_popped() const noexcept { return popped_; }
  [[nodiscard]] std::size_t peak_pending() const noexcept {
    return peak_pending_;
  }
  /// High-water of the queue's owned storage in bytes (heap + ring
  /// capacity); grows with concurrency, not horizon.
  [[nodiscard]] std::size_t peak_bytes() const noexcept {
    return peak_bytes_;
  }
  /// High-water of the immediates ring occupancy — the deepest burst of
  /// synchronously posted work (e.g. relocations displaced by one crash).
  [[nodiscard]] std::size_t peak_ring_pending() const noexcept {
    return peak_ring_;
  }

 private:
  void note_size() noexcept {
    const std::size_t p = pending();
    if (p > peak_pending_) peak_pending_ = p;
    const std::size_t b =
        (heap_.capacity() + ring_.capacity()) * sizeof(SimEvent);
    if (b > peak_bytes_) peak_bytes_ = b;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<SimEvent> heap_;
  std::vector<SimEvent> ring_;
  std::size_t ring_head_ = 0;
  double now_ = 0.0;
  std::uint64_t dyn_counter_ = 0;
  std::uint64_t status_counter_ = 0;
  std::size_t popped_ = 0;
  std::size_t peak_pending_ = 0;
  std::size_t peak_bytes_ = 0;
  std::size_t peak_ring_ = 0;
};

inline constexpr std::uint32_t kNilSlot = static_cast<std::uint32_t>(-1);

/// Generation-stamped reference to a flight slot.  A handle whose
/// generation no longer matches the slot dereferences to null — an O(1)
/// stale-discard.
struct FlightHandle {
  std::uint32_t slot = kNilSlot;
  std::uint32_t gen = 0;
};

/// One admitted demand holding resource at a site (payload of a slab slot).
struct Flight {
  QueryId query = 0;
  std::uint32_t demand = 0;
  SiteId site = kInvalidSite;
  double need = 0.0;            ///< GHz held while processing
  std::uint64_t birth = 0;      ///< global creation counter (launch order)
  // Slab internals:
  std::uint32_t gen = 0;
  std::uint32_t prev = kNilSlot;  ///< intrusive live list (creation order)
  std::uint32_t next = kNilSlot;
  bool live = false;
};

/// Slab allocator for flights: O(1) create/destroy with slot reuse, and a
/// creation-ordered live list for the handful of fault paths that must
/// visit every survivor (site-crash home checks).
class FlightSlab {
 public:
  /// Acquire a slot (reusing a freed one when available).  The returned
  /// handle carries the slot's current generation; payload fields are the
  /// caller's to fill.  Newly created flights append to the live-list tail,
  /// so list order == launch order.
  FlightHandle create();

  /// Release a slot: unlink from the live list, bump the generation (all
  /// outstanding handles to it go stale), recycle the slot.
  void destroy(FlightHandle h);

  /// Dereference; null when the handle is stale or freed.
  [[nodiscard]] Flight* get(FlightHandle h) noexcept {
    if (h.slot >= slots_.size()) return nullptr;
    Flight& f = slots_[h.slot];
    return (f.live && f.gen == h.gen) ? &f : nullptr;
  }
  [[nodiscard]] const Flight* get(FlightHandle h) const noexcept {
    return const_cast<FlightSlab*>(this)->get(h);
  }

  /// Unchecked slot access (for walking the live list).
  [[nodiscard]] Flight& at(std::uint32_t slot) { return slots_[slot]; }
  [[nodiscard]] const Flight& at(std::uint32_t slot) const {
    return slots_[slot];
  }

  /// First live slot in creation order (kNilSlot when none); follow
  /// `at(slot).next`.
  [[nodiscard]] std::uint32_t live_head() const noexcept { return head_; }

  [[nodiscard]] std::size_t live_count() const noexcept { return live_; }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] std::size_t peak_live() const noexcept { return peak_live_; }
  /// Flights ever created; with `destroys()` this is the slab's generation
  /// churn — how much slot recycling the run drove.
  [[nodiscard]] std::uint64_t births() const noexcept { return births_; }
  [[nodiscard]] std::uint64_t destroys() const noexcept {
    return births_ - live_;
  }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    return slots_.capacity() * sizeof(Flight) +
           free_.capacity() * sizeof(std::uint32_t);
  }

 private:
  std::vector<Flight> slots_;
  std::vector<std::uint32_t> free_;
  std::uint32_t head_ = kNilSlot;
  std::uint32_t tail_ = kNilSlot;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
  std::uint64_t births_ = 0;
};

}  // namespace edgerep
