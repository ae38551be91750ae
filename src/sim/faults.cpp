#include "sim/faults.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace edgerep {

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kSiteDown:
      return "site_down";
    case FaultKind::kSiteUp:
      return "site_up";
    case FaultKind::kLinkDown:
      return "link_down";
    case FaultKind::kLinkUp:
      return "link_up";
    case FaultKind::kCapacityLoss:
      return "capacity_loss";
    case FaultKind::kCapacityRestore:
      return "capacity_restore";
  }
  return "?";
}

namespace {

bool is_site_event(FaultKind k) noexcept {
  return k == FaultKind::kSiteDown || k == FaultKind::kSiteUp ||
         k == FaultKind::kCapacityLoss || k == FaultKind::kCapacityRestore;
}

bool is_link_event(FaultKind k) noexcept {
  return k == FaultKind::kLinkDown || k == FaultKind::kLinkUp;
}

void check_event(const Instance& inst, const FaultEvent& e,
                 std::size_t index) {
  const auto where = [index] {
    return "fault event " + std::to_string(index) + ": ";
  };
  if (!std::isfinite(e.time) || e.time < 0.0) {
    throw std::invalid_argument(where() + "time must be finite and >= 0");
  }
  if (is_site_event(e.kind) && e.site >= inst.sites().size()) {
    throw std::invalid_argument(where() + "site " + std::to_string(e.site) +
                                " out of range");
  }
  if (is_link_event(e.kind) && e.edge >= inst.graph().num_edges()) {
    throw std::invalid_argument(where() + "edge " + std::to_string(e.edge) +
                                " out of range");
  }
  if (e.kind == FaultKind::kCapacityLoss &&
      !(e.fraction > 0.0 && e.fraction <= 1.0)) {
    throw std::invalid_argument(where() + "capacity loss fraction must be in "
                                          "(0, 1]");
  }
}

}  // namespace

void validate_fault_trace(const Instance& inst, const FaultTrace& trace) {
  double prev = 0.0;
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const FaultEvent& e = trace.events[i];
    check_event(inst, e, i);
    if (e.time < prev) {
      throw std::invalid_argument("fault event " + std::to_string(i) +
                                  ": times must be non-decreasing");
    }
    prev = e.time;
  }
}

FaultState::FaultState(const Instance& inst) : inst_(&inst) {
  if (!inst.finalized()) {
    throw std::invalid_argument("FaultState: instance not finalized");
  }
  up_.assign(inst.sites().size(), 1);
  lost_frac_.assign(inst.sites().size(), 0.0);
  edge_up_.assign(inst.graph().num_edges(), 1);
}

double FaultState::capacity_scale(SiteId s) const {
  if (!up_.at(s)) return 0.0;
  return 1.0 - lost_frac_[s];
}

void FaultState::apply(const FaultEvent& e) {
  check_event(*inst_, e, epoch_);
  switch (e.kind) {
    case FaultKind::kSiteDown:
      if (up_[e.site]) {
        up_[e.site] = 0;
        ++sites_down_;
      }
      break;
    case FaultKind::kSiteUp:
      if (!up_[e.site]) {
        up_[e.site] = 1;
        --sites_down_;
      }
      break;
    case FaultKind::kLinkDown:
      if (edge_up_[e.edge]) {
        edge_up_[e.edge] = 0;
        ++links_down_;
        overlay_dirty_ = true;
      }
      break;
    case FaultKind::kLinkUp:
      if (!edge_up_[e.edge]) {
        edge_up_[e.edge] = 1;
        --links_down_;
        overlay_dirty_ = true;
      }
      break;
    case FaultKind::kCapacityLoss:
      if (lost_frac_[e.site] == 0.0) ++capacity_faults_;
      lost_frac_[e.site] = e.fraction;  // absolute, not cumulative
      break;
    case FaultKind::kCapacityRestore:
      if (lost_frac_[e.site] > 0.0) --capacity_faults_;
      lost_frac_[e.site] = 0.0;
      break;
  }
  ++epoch_;
}

void FaultState::apply_until(const FaultTrace& trace, double until) {
  for (const FaultEvent& e : trace.events) {
    if (e.time > until) break;
    apply(e);
  }
}

void FaultState::rebuild_overlay() const {
  std::vector<NodeId> nodes;
  nodes.reserve(inst_->sites().size());
  for (const Site& s : inst_->sites()) nodes.push_back(s.node);
  overlay_ = DelayTable::compute(inst_->graph(), nodes, /*parallel=*/true,
                                 edge_up_);
  overlay_dirty_ = false;
}

double FaultState::path_delay(SiteId from, SiteId to) const {
  if (links_down_ == 0) return inst_->path_delay(from, to);
  if (overlay_dirty_) rebuild_overlay();
  return overlay_.at(from, inst_->site(to).node);
}

double FaultState::evaluation_delay(const Query& q, const DatasetDemand& dd,
                                    SiteId site) const {
  if (links_down_ == 0) return edgerep::evaluation_delay(*inst_, q, dd, site);
  // Same operation order as the fault-free model so delays agree bit-for-bit
  // when the path is unaffected by the downed links.
  const Dataset& ds = inst_->dataset(dd.dataset);
  const Site& s = inst_->site(site);
  const double processing = ds.volume * s.proc_delay;
  const double transmission =
      dd.selectivity * ds.volume * path_delay(site, q.home);
  return processing + transmission;
}

}  // namespace edgerep
