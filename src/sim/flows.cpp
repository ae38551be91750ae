#include "sim/flows.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace edgerep {

std::vector<double> max_min_rates(
    const std::vector<double>& link_capacity,
    const std::vector<std::vector<EdgeId>>& flow_paths,
    const std::vector<double>& rate_cap) {
  const std::size_t num_flows = flow_paths.size();
  std::vector<double> rate(num_flows, 0.0);
  std::vector<char> frozen(num_flows, 0);
  std::vector<double> residual = link_capacity;
  const auto cap_of = [&rate_cap](std::size_t f) {
    return f < rate_cap.size() ? rate_cap[f] : kUnconstrainedRate;
  };
  // Flows per link (only unfrozen ones are counted each round).
  std::size_t remaining = 0;
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (flow_paths[f].empty()) {
      rate[f] = std::min(kUnconstrainedRate, cap_of(f));
      frozen[f] = 1;
    } else {
      ++remaining;
    }
  }
  // Progressive filling: repeatedly saturate the tightest link.
  while (remaining > 0) {
    // Count unfrozen flows per link and find the minimum fair share.
    double best_share = std::numeric_limits<double>::infinity();
    std::vector<std::size_t> users(link_capacity.size(), 0);
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      for (const EdgeId e : flow_paths[f]) ++users.at(e);
    }
    for (std::size_t e = 0; e < link_capacity.size(); ++e) {
      if (users[e] > 0) {
        best_share = std::min(best_share,
                              residual[e] / static_cast<double>(users[e]));
      }
    }
    // A capped flow's remaining headroom can be the binding constraint of
    // the round.  With the default (unconstrained) cap these comparisons
    // never bind, leaving the allocation bit-identical to the uncapped one.
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      best_share = std::min(best_share, cap_of(f) - rate[f]);
    }
    if (!std::isfinite(best_share)) break;  // defensive; cannot happen
    best_share = std::max(best_share, 0.0);
    // Freeze every unfrozen flow crossing a saturated link at best_share.
    // (All unfrozen flows gain best_share this round; those on bottleneck
    // links — or out of cap headroom — stop growing.)
    std::vector<char> saturated(link_capacity.size(), 0);
    for (std::size_t e = 0; e < link_capacity.size(); ++e) {
      if (users[e] > 0 &&
          residual[e] / static_cast<double>(users[e]) <= best_share + 1e-12) {
        saturated[e] = 1;
      }
    }
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      rate[f] += best_share;
      for (const EdgeId e : flow_paths[f]) residual[e] -= best_share;
      bool stop = false;
      for (const EdgeId e : flow_paths[f]) stop |= saturated[e] == 1;
      stop |= cap_of(f) - rate[f] <= 1e-12;
      if (stop) {
        frozen[f] = 1;
        --remaining;
      }
    }
  }
  return rate;
}

namespace {

void validate_capacities(const std::vector<double>& caps) {
  for (const double c : caps) {
    if (c <= 0.0) {
      throw std::invalid_argument("FlowEngine: link capacity must be > 0");
    }
  }
}

}  // namespace

FlowEngine::FlowEngine(TypedEventQueue& queue,
                       std::vector<double> link_capacity)
    : queue_(&queue), link_capacity_(std::move(link_capacity)) {
  validate_capacities(link_capacity_);
  const std::size_t n = link_capacity_.size();
  link_users_.resize(n);
  link_mark_.resize(n, 0);
  sat_mark_.resize(n, 0);
  users_.resize(n, 0);
  residual_.resize(n, 0.0);
}

void FlowEngine::validate_path(const std::vector<EdgeId>& path) const {
  for (const EdgeId e : path) {
    if (e >= link_capacity_.size()) {
      throw std::invalid_argument("FlowEngine: path edge out of range");
    }
  }
}

std::uint32_t FlowEngine::alloc_slot() {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
    flow_mark_.push_back(0);
    frozen_mark_.push_back(0);
    fill_rate_.push_back(0.0);
    frozen_edge_.push_back(kInvalidEdge);
  }
  return slot;
}

void FlowEngine::unlink(std::uint32_t slot) {
  for (const EdgeId e : flows_[slot].path) {
    auto& users = link_users_[e];
    const auto it = std::find(users.begin(), users.end(), slot);
    *it = users.back();
    users.pop_back();
  }
}

void FlowEngine::schedule_completion(std::uint32_t slot) {
  Flow& f = flows_[slot];
  if (f.rate <= 0.0) return;  // starved (cannot happen with >0 capacities)
  const double eta = std::max(f.remaining / f.rate, 0.0);
  queue_->push_dynamic(EvKind::kTransferDone, now() + eta, slot, f.gen);
}

void FlowEngine::complete_flow(std::uint32_t slot, bool via_event) {
  Flow& f = flows_[slot];
  if (f.state == State::kActive) --active_;
  f.rate = 0.0;
  f.remaining = 0.0;
  ++f.gen;  // any armed prediction for the old rate goes stale
  // Retirement record: rate 0 at the actual completion instant.
  if (rate_listener_) rate_listener_(f.tag, now(), 0.0, 0.0, kInvalidEdge);
  if (via_event) {
    // The flow's own current event is being handled — already delivered.
    f.state = State::kFree;
    free_.push_back(slot);
  } else {
    // Park until the authoritative kTransferDone below is consumed by
    // handle_event (the slot must not be reused before delivery).
    f.state = State::kCompleting;
    queue_->push_dynamic(EvKind::kTransferDone, now(), slot, f.gen);
  }
}

void FlowEngine::gather_component(std::uint32_t seed) {
  comp_flows_.clear();
  comp_links_.clear();
  stack_.clear();
  flow_mark_[seed] = epoch_;
  comp_flows_.push_back(seed);
  stack_.push_back(seed);
  while (!stack_.empty()) {
    const std::uint32_t f = stack_.back();
    stack_.pop_back();
    for (const EdgeId e : flows_[f].path) {
      if (link_mark_[e] == epoch_) continue;
      link_mark_[e] = epoch_;
      comp_links_.push_back(e);
      for (const std::uint32_t u : link_users_[e]) {
        if (flow_mark_[u] == epoch_) continue;
        flow_mark_[u] = epoch_;
        comp_flows_.push_back(u);
        stack_.push_back(u);
      }
    }
  }
  // Ascending slot order is the canonical iteration order of every pass
  // over the component (advance, retire, fill) — it makes the fill a pure
  // function of the component's membership.
  std::sort(comp_flows_.begin(), comp_flows_.end());
}

void FlowEngine::fill_component() {
  for (const EdgeId e : comp_links_) residual_[e] = link_capacity_[e];
  for (const std::uint32_t f : comp_flows_) {
    fill_rate_[f] = 0.0;
    frozen_edge_[f] = kInvalidEdge;
  }
  const std::uint64_t fill_id = ++round_;
  std::size_t remaining = comp_flows_.size();
  // Progressive filling restricted to the component: same arithmetic, same
  // epsilons as max_min_rates above, over exactly the component's links and
  // flows.  `remaining` (the data left to move) never enters the rates.
  while (remaining > 0) {
    for (const EdgeId e : comp_links_) users_[e] = 0;
    for (const std::uint32_t f : comp_flows_) {
      if (frozen_mark_[f] == fill_id) continue;
      for (const EdgeId e : flows_[f].path) ++users_[e];
    }
    double best_share = std::numeric_limits<double>::infinity();
    for (const EdgeId e : comp_links_) {
      if (users_[e] > 0) {
        best_share = std::min(best_share,
                              residual_[e] / static_cast<double>(users_[e]));
      }
    }
    // Per-flow caps participate like virtual private links: a capped
    // flow's remaining headroom can be the round's binding constraint.
    // With the default (unconstrained) cap none of these comparisons ever
    // bind, so uncapped allocations stay bit-identical.
    for (const std::uint32_t f : comp_flows_) {
      if (frozen_mark_[f] == fill_id) continue;
      best_share = std::min(best_share, flows_[f].cap - fill_rate_[f]);
    }
    if (!std::isfinite(best_share)) break;  // defensive; cannot happen
    best_share = std::max(best_share, 0.0);
    const std::uint64_t rs = ++round_;
    for (const EdgeId e : comp_links_) {
      if (users_[e] > 0 &&
          residual_[e] / static_cast<double>(users_[e]) <=
              best_share + 1e-12) {
        sat_mark_[e] = rs;
      }
    }
    for (const std::uint32_t f : comp_flows_) {
      if (frozen_mark_[f] == fill_id) continue;
      fill_rate_[f] += best_share;
      bool stop = false;
      for (const EdgeId e : flows_[f].path) {
        residual_[e] -= best_share;
        if (sat_mark_[e] == rs && !stop) {
          stop = true;
          frozen_edge_[f] = e;  // first bottleneck link on the path
        }
      }
      // Cap-frozen flows keep kInvalidEdge: no link is to blame.
      stop |= flows_[f].cap - fill_rate_[f] <= 1e-12;
      if (stop) {
        frozen_mark_[f] = fill_id;
        --remaining;
      }
    }
  }
  // Apply: only flows whose rate actually changed get a new generation and
  // a new predicted-completion event; unchanged flows keep their armed
  // event — this is what makes kFull bit-identical to kIncremental.
  for (const std::uint32_t f : comp_flows_) {
    Flow& fl = flows_[f];
    const double r = fill_rate_[f];
    if (r == fl.rate) continue;
    fl.rate = r;
    ++fl.gen;
    schedule_completion(f);
    if (rate_listener_) {
      rate_listener_(fl.tag, now(), r, fl.remaining, frozen_edge_[f]);
    }
  }
}

bool FlowEngine::alone_on_path(std::uint32_t seed) const {
  for (const EdgeId e : flows_[seed].path) {
    if (link_users_[e].size() != 1) return false;
  }
  return true;
}

void FlowEngine::recompute(std::uint32_t seed, bool force_complete,
                           bool silent_seed) {
  const bool incremental = mode_ == Recompute::kIncremental;
  // Phase A: gather the changed flow's connected component.  A seed that
  // is the only user of every link on its path is a component by itself:
  // {seed} over its path, without the gather and its sort.
  if (incremental && alone_on_path(seed)) {
    comp_flows_.assign(1, seed);
    comp_links_.assign(flows_[seed].path.begin(), flows_[seed].path.end());
  } else {
    ++epoch_;
    gather_component(seed);
  }
  touched_buf_.assign(comp_flows_.begin(), comp_flows_.end());
  // Phase B: integrate the component's transferred bytes up to now.
  const double t = now();
  for (const std::uint32_t f : touched_buf_) {
    Flow& fl = flows_[f];
    const double dt = t - fl.last_advance;
    if (dt > 0.0) fl.remaining -= dt * fl.rate;
    fl.last_advance = t;
  }
  // Phase C: retire drained flows (ascending slot order, matching the old
  // engine's erase order); the seed of a completion event retires
  // unconditionally — its event is the authoritative completion instant.
  retire_buf_.clear();
  for (const std::uint32_t f : touched_buf_) {
    if ((force_complete && f == seed) || flows_[f].remaining <= 1e-12) {
      retire_buf_.push_back(f);
    }
  }
  for (const std::uint32_t f : retire_buf_) {
    unlink(f);
    if (silent_seed && f == seed) {
      // Cancelled: free without delivery and without a retirement record.
      Flow& fl = flows_[f];
      if (fl.state == State::kActive) --active_;
      fl.rate = 0.0;
      fl.remaining = 0.0;
      ++fl.gen;  // any armed prediction goes stale
      fl.state = State::kFree;
      free_.push_back(f);
    } else {
      complete_flow(f, force_complete && f == seed && !silent_seed);
    }
  }
  // Phase D: refill the surviving components.  Without a retirement the
  // component of Phase A is intact and fills as gathered.  A retirement may
  // have split it; each true component is gathered and filled separately
  // so rates stay a pure function of component membership.
  if (incremental && retire_buf_.empty()) {
    fill_component();
    return;
  }
  ++epoch_;
  if (incremental) {
    for (const std::uint32_t f : touched_buf_) {
      if (flows_[f].state != State::kActive || flow_mark_[f] == epoch_) {
        continue;
      }
      gather_component(f);
      fill_component();
    }
  } else {
    for (std::uint32_t f = 0; f < flows_.size(); ++f) {
      if (flows_[f].state != State::kActive || flow_mark_[f] == epoch_) {
        continue;
      }
      gather_component(f);
      fill_component();
    }
  }
}

std::uint32_t FlowEngine::start_flow(double size_gb,
                                     const std::vector<EdgeId>& path,
                                     std::uint32_t tag, double rate_cap) {
  if (rate_cap <= 0.0) {
    throw std::invalid_argument("FlowEngine: rate cap must be > 0");
  }
  validate_path(path);
  const std::uint32_t slot = alloc_slot();
  Flow& f = flows_[slot];
  f.tag = tag;
  f.cap = rate_cap;
  if (path.empty() || size_gb <= 1e-12) {
    f.remaining = 0.0;
    f.rate = 0.0;
    f.path.clear();
    f.state = State::kCompleting;
    ++f.gen;
    queue_->push_dynamic(EvKind::kTransferDone, now(), slot, f.gen);
    return slot;
  }
  f.remaining = size_gb;
  f.rate = 0.0;
  f.last_advance = now();
  f.path.assign(path.begin(), path.end());  // reuses the slot's buffer
  f.state = State::kActive;
  ++active_;
  for (const EdgeId e : f.path) link_users_[e].push_back(slot);
  recompute(slot, /*force_complete=*/false);
  return slot;
}

void FlowEngine::cancel(std::uint32_t slot) {
  if (slot >= flows_.size()) return;
  Flow& f = flows_[slot];
  if (f.state == State::kCompleting) {
    // Drained but undelivered: stale the parked event and free the slot
    // (the generation is monotone per slot, so a later reuse cannot
    // resurrect the event).
    ++f.gen;
    f.state = State::kFree;
    free_.push_back(slot);
    return;
  }
  if (f.state != State::kActive) return;
  recompute(slot, /*force_complete=*/true, /*silent_seed=*/true);
}

void FlowEngine::set_link_capacity(EdgeId e, double capacity) {
  if (e >= link_capacity_.size()) {
    throw std::out_of_range("FlowEngine: link out of range");
  }
  if (capacity <= 0.0) {
    throw std::invalid_argument("FlowEngine: link capacity must be > 0");
  }
  link_capacity_[e] = capacity;
  if (link_users_[e].empty()) return;
  // Advance the crossing flows to now under their old rates, then refill
  // their component with the new capacity (drained flows retire normally).
  recompute(link_users_[e].front(), /*force_complete=*/false);
}

std::uint32_t FlowEngine::handle_event(const SimEvent& ev) {
  if (ev.kind != EvKind::kTransferDone) return kNoFlow;
  const std::uint32_t slot = ev.a;
  if (slot >= flows_.size()) return kNoFlow;
  Flow& f = flows_[slot];
  if (f.state == State::kFree || f.gen != ev.b) return kNoFlow;  // stale
  const std::uint32_t tag = f.tag;
  if (f.state == State::kCompleting) {
    // Parked delivery (threshold-drained or trivial flow): just free.
    ++f.gen;
    f.state = State::kFree;
    free_.push_back(slot);
    return tag;
  }
  recompute(slot, /*force_complete=*/true);
  return tag;
}

}  // namespace edgerep
