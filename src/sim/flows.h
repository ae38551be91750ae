// Flow-level network bandwidth sharing with max-min fairness.
//
// The basic simulator treats an intermediate-result transfer as a fixed
// delay (size × per-GB path delay) — correct when links are uncontended.
// This engine models what a real testbed does instead: concurrent transfers
// crossing the same link share its bandwidth, with rates given by the
// classic max-min fair (progressive-filling) allocation, recomputed whenever
// a flow starts or finishes.
//
// The engine is incremental: a start or completion re-allocates only the
// *connected component* of flows transitively sharing a link with the
// changed flow — untouched components keep their rates (and their armed
// completion events) bit for bit.  A flow that is the only user of every
// link on its path is its own component and is filled without a gather.
// Rate computation is a pure function of (link capacities, component's
// flow paths), canonicalized by ascending slot order, so `Recompute::kFull`
// — which gathers and re-fills every component — is bit-identical to the
// incremental path and serves as its oracle (pinned by
// tests/sim/flows_test.cpp).
//
// Flows live in a slot registry with free-list reuse; a path is copied into
// its slot's own buffer, whose capacity survives reuse, so starting a flow
// allocates nothing once the slots are warm.  Completion events carry the
// flow's generation, which bumps on every rate change, so a stale
// prediction self-discards.  Completions surface as EvKind::kTransferDone
// events on the owning TypedEventQueue; the run loop feeds them to
// handle_event(), which returns the caller's tag when the flow is done.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/graph.h"
#include "sim/event_kernel.h"

namespace edgerep {

/// Max-min fair rates for `flow_paths` over links with capacities
/// `link_capacity` (GB/s).  A flow with an empty path is unconstrained and
/// gets an infinite rate sentinel (kUnconstrainedRate).  `rate_cap`, when
/// non-empty, is a per-flow ceiling: a flow stops growing once it reaches
/// its cap even if its links have headroom (the online backend caps every
/// transfer at nominal rate 1.0, so uncontended flows finish exactly at
/// their priced delay).  Exposed separately so tests can check the
/// allocation against hand-computed examples.
inline constexpr double kUnconstrainedRate = 1e300;
std::vector<double> max_min_rates(
    const std::vector<double>& link_capacity,
    const std::vector<std::vector<EdgeId>>& flow_paths,
    const std::vector<double>& rate_cap = {});

class FlowEngine {
 public:
  /// Sentinel returned by handle_event for stale or foreign events.
  static constexpr std::uint32_t kNoFlow = static_cast<std::uint32_t>(-1);

  /// Re-allocation scope: `kIncremental` refills only the changed flow's
  /// connected component (production); `kFull` refills every component
  /// (oracle; bit-identical by construction, used by the equivalence tests).
  enum class Recompute : std::uint8_t { kIncremental, kFull };

  /// Observer of every flow rate transition: called when a fill changes a
  /// flow's rate (rate > 0; `bottleneck` is the saturated link that froze
  /// the flow, or kInvalidEdge when its own rate cap did) and once at
  /// retirement (rate == 0, remaining == 0, `time` = the actual completion
  /// instant).  The call sequence is deterministic (ascending slot order
  /// inside each fill), so journal appends driven from here are
  /// byte-reproducible.
  using RateListener = std::function<void(
      std::uint32_t tag, double time, double rate, double remaining,
      EdgeId bottleneck)>;

  /// Completions surface as kTransferDone events on `queue`.
  /// `link_capacity[e]` is the bandwidth of edge e in GB/s.
  FlowEngine(TypedEventQueue& queue, std::vector<double> link_capacity);

  void set_recompute_mode(Recompute mode) noexcept { mode_ = mode; }

  /// Install (or clear, with nullptr) the rate-transition observer.
  void set_rate_listener(RateListener listener) {
    rate_listener_ = std::move(listener);
  }

  /// Begin transferring `size_gb` along `path` (edge ids; copied, so the
  /// caller may reuse its buffer).  The completion arrives on the queue as
  /// kTransferDone{a = slot, b = generation}; handle_event returns `tag`
  /// when that event is current.  A flow of size 0 or with an empty path
  /// completes at now.  `rate_cap` bounds the flow's rate.  Returns the
  /// flow's slot (usable with cancel()).
  std::uint32_t start_flow(double size_gb, const std::vector<EdgeId>& path,
                           std::uint32_t tag,
                           double rate_cap = kUnconstrainedRate);

  /// Feed a popped kTransferDone event to the engine.  Returns the starting
  /// call's `tag` when the event is a current completion, kNoFlow when it
  /// is stale (the flow's rate changed after it was scheduled) or not a
  /// kTransferDone at all.
  [[nodiscard]] std::uint32_t handle_event(const SimEvent& ev);

  /// Abort `slot` without delivering a completion: the flow leaves its
  /// links, any armed event goes stale, freed bandwidth is re-filled into
  /// the surviving component(s), and no completion is ever delivered (the
  /// rate listener is not called either — the caller records the kill
  /// itself).  A drained flow still parked for delivery is dropped too:
  /// the generation guard keeps its event stale.  No-op on a free slot.
  void cancel(std::uint32_t slot);

  /// Change one link's capacity mid-run (must stay > 0): flows crossing it
  /// are advanced to now and their component re-filled.  Links without
  /// active flows just take the new value.
  void set_link_capacity(EdgeId e, double capacity);

  [[nodiscard]] double link_capacity(EdgeId e) const {
    return link_capacity_.at(e);
  }

  [[nodiscard]] std::size_t active_flows() const noexcept { return active_; }

 private:
  enum class State : std::uint8_t { kFree, kActive, kCompleting };

  struct Flow {
    double remaining = 0.0;
    double rate = 0.0;
    double cap = kUnconstrainedRate;  ///< per-flow rate ceiling
    double last_advance = 0.0;
    std::vector<EdgeId> path;        ///< copied in; capacity kept on reuse
    std::uint32_t tag = 0;           ///< handle_event result; listener label
    std::uint32_t gen = 0;           ///< bumps on rate change and retire
    State state = State::kFree;
  };

  [[nodiscard]] double now() const noexcept { return queue_->now(); }
  void validate_path(const std::vector<EdgeId>& path) const;
  std::uint32_t alloc_slot();
  void unlink(std::uint32_t slot);

  /// Predicted-completion event for `slot` at its current (rate, gen).
  void schedule_completion(std::uint32_t slot);

  /// Deliver a completed flow: park the slot in kCompleting and emit the
  /// authoritative kTransferDone (freed when handle_event consumes it).
  /// `via_event` marks the flow whose own current event is being handled —
  /// it is already delivered, so its slot frees directly.
  void complete_flow(std::uint32_t slot, bool via_event);

  /// Gather the connected component containing `seed` into comp_flows_ /
  /// comp_links_ (epoch-marked; comp_flows_ sorted ascending).
  void gather_component(std::uint32_t seed);

  /// Is `seed` the only user of every link on its path (then it is a
  /// component by itself)?
  [[nodiscard]] bool alone_on_path(std::uint32_t seed) const;

  /// Canonical progressive filling over comp_flows_/comp_links_ alone.
  /// Pure function of (link capacities, component paths); flows whose rate
  /// changed bitwise get a new generation + completion event.
  void fill_component();

  /// Advance the seed's component to now, complete drained flows
  /// (`force_complete` = the seed itself finishes regardless of residual;
  /// `silent_seed` = the seed is being cancelled — freed without delivery),
  /// then refill the surviving components — the seed's under kIncremental,
  /// every component under kFull.
  void recompute(std::uint32_t seed, bool force_complete,
                 bool silent_seed = false);

  TypedEventQueue* queue_;
  std::vector<double> link_capacity_;
  Recompute mode_ = Recompute::kIncremental;
  RateListener rate_listener_;

  std::vector<Flow> flows_;
  std::vector<std::uint32_t> free_;
  std::vector<std::vector<std::uint32_t>> link_users_;  ///< active flows/link
  std::size_t active_ = 0;

  // --- re-allocation scratch (sized once, epoch-validated) ---------------
  std::uint64_t epoch_ = 0;                ///< component-gather epoch
  std::uint64_t round_ = 0;                ///< per-fill saturation round
  std::vector<std::uint64_t> flow_mark_;   ///< gather visit marks
  std::vector<std::uint64_t> link_mark_;
  std::vector<std::uint64_t> frozen_mark_;  ///< fill: flow frozen this epoch
  std::vector<std::uint64_t> sat_mark_;     ///< fill: link saturated round
  std::vector<EdgeId> frozen_edge_;  ///< fill: link that froze each flow
  std::vector<std::uint32_t> stack_;
  std::vector<std::uint32_t> comp_flows_;
  std::vector<EdgeId> comp_links_;
  std::vector<std::uint32_t> users_;       ///< per comp link, per round
  std::vector<double> residual_;           ///< per comp link, per fill
  std::vector<double> fill_rate_;          ///< per comp flow, per fill
  std::vector<std::uint32_t> retire_buf_;  ///< drained flows per recompute
  std::vector<std::uint32_t> touched_buf_;  ///< advanced flows per recompute
};

}  // namespace edgerep
