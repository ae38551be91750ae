#include "core/primal_dual.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace edgerep {

namespace {

/// Mirror a θ mutation to the live telemetry board.  Gated here (not in the
/// board) so the disabled path is one relaxed load — bit-neutrality of the
/// solver does not depend on the board's mutex.
inline void publish_theta(SiteId l, double v) {
  if (obs::metrics_enabled()) {
    obs::dual_prices().publish(l, v);
  }
}

}  // namespace

DualState::DualState(const Instance& inst) : inst_(&inst) {
  theta_.assign(inst.sites().size(), 0.0);
  y_.assign(inst.queries().size(), 0.0);
  mu_.assign(inst.queries().size(), 0.0);
}

void DualState::raise_theta(SiteId l, double resource_amount, double avail) {
  if (avail > 0.0) {
    journal(Var::kTheta, l, theta_.at(l));
    theta_[l] += resource_amount / avail;
    publish_theta(l, theta_[l]);
    if (obs::metrics_enabled()) {
      static obs::Counter& raises = obs::metrics().counter(
          "edgerep_dual_theta_raises_total",
          "uniform theta raising steps taken by the primal-dual engines");
      raises.inc();
    }
  }
}

void DualState::set_theta(SiteId l, double v) {
  journal(Var::kTheta, l, theta_.at(l));
  theta_[l] = v;
  publish_theta(l, v);
}

DualState::Savepoint DualState::savepoint() {
  journaling_ = true;
  return undo_log_.size();
}

void DualState::rollback_to(Savepoint sp) {
  if (sp > undo_log_.size()) {
    throw std::invalid_argument("rollback_to: savepoint ahead of undo log");
  }
  while (undo_log_.size() > sp) {
    const UndoEntry& e = undo_log_.back();
    switch (e.var) {
      case Var::kTheta:
        theta_[e.index] = e.prev;
        publish_theta(e.index, e.prev);  // keep the live board honest
        break;
      case Var::kY:
        y_[e.index] = e.prev;
        break;
      case Var::kMu:
        mu_[e.index] = e.prev;
        break;
    }
    undo_log_.pop_back();
  }
}

void DualState::commit() noexcept {
  undo_log_.clear();
  journaling_ = false;
}

void DualState::repair() {
  const Instance& inst = *inst_;
  // Cheapest θ over sites: the binding site for constraint (9) when y must
  // cover the slack everywhere.
  double min_theta = theta_.empty() ? 0.0 : theta_[0];
  for (const double t : theta_) min_theta = std::min(min_theta, t);
  for (const Query& q : inst.queries()) {
    const double vol = inst.demanded_volume(q.id);
    const double needed = vol * std::max(0.0, 1.0 - q.rate * min_theta);
    y_[q.id] = std::max(y_[q.id], needed);
    mu_[q.id] = std::max(mu_[q.id], y_[q.id]);
  }
}

double DualState::objective() const {
  const Instance& inst = *inst_;
  double obj = 0.0;
  for (const Site& s : inst.sites()) obj += s.available * theta_[s.id];
  const double k = static_cast<double>(inst.max_replicas());
  for (const Query& q : inst.queries()) obj += k * mu_[q.id];
  return obj;
}

bool DualState::feasible(double tol) const {
  const Instance& inst = *inst_;
  for (const Query& q : inst.queries()) {
    const double vol = inst.demanded_volume(q.id);
    for (const Site& s : inst.sites()) {
      // (9) with η ≡ 0: vol·r_m·θ_l + y_m ≥ vol.
      if (vol * q.rate * theta_[s.id] + y_[q.id] < vol - tol) return false;
    }
    // (10) reduced to the per-query form μ_m ≥ y_m (y lives at one site).
    if (mu_[q.id] < y_[q.id] - tol) return false;
  }
  for (const double t : theta_) {
    if (t < -tol) return false;
  }
  return true;
}

}  // namespace edgerep
