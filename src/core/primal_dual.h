// Dual machinery of the primal-dual approximation (paper §3.3).
//
// The dual (8)–(14) prices:
//   θ_l    computing capacity at site l,
//   y_{ml} assigning query m to site l,
//   η_{ml} query m's deadline at site l,
//   μ_m    creating a replica of the dataset demanded by m.
//
// During the primal-dual run θ evolves as a relative-load price and guides
// site selection.  Afterwards `repair` lifts (y, μ) to the cheapest values
// that make the dual solution *feasible* (constraints (9)–(10) for every
// (m, l) pair, with η fixed at 0), so `objective` yields a genuine upper
// bound on any primal solution — weak duality that tests can assert.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cloud/instance.h"
#include "util/prefetch.h"

namespace edgerep {

class DualState {
 public:
  explicit DualState(const Instance& inst);

  [[nodiscard]] const Instance& instance() const noexcept { return *inst_; }

  /// --- evolving prices used during the primal run ----------------------
  [[nodiscard]] double theta(SiteId l) const { return theta_.at(l); }
  /// Contiguous θ vector for the pricing kernel's unchecked gathers.
  [[nodiscard]] std::span<const double> theta_data() const noexcept {
    return theta_;
  }
  /// Raise θ_l by the relative load `amount / avail` (uniform raising
  /// step), where `avail` is the availability the step priced l against:
  /// A(v_l), or repair's effective A(v_l)·scale.  No-op when avail ≤ 0.
  void raise_theta(SiteId l, double resource_amount, double avail);

  /// Directly re-price θ_l (journaled).  The repair engine uses this to
  /// reset a site's capacity price to `load / effective availability` after
  /// a failure changes A(v_l) or evicts committed load — uniform raising
  /// then continues from the re-priced value.
  void set_theta(SiteId l, double v);

  [[nodiscard]] double mu(QueryId m) const { return mu_.at(m); }
  /// Raise μ_m by one unit — "we create one replica" (Algorithm 1 line 7).
  void raise_mu(QueryId m) {
    journal(Var::kMu, m, mu_.at(m));
    mu_[m] += 1.0;
  }

  [[nodiscard]] double y(QueryId m) const { return y_.at(m); }
  void set_y(QueryId m, double v) {
    journal(Var::kY, m, y_.at(m));
    y_[m] = v;
  }

  /// Prefetch hint for a loop about to admit query m: its y and μ lines.
  void prefetch(QueryId m) const noexcept {
    edgerep::prefetch(&y_[m]);
    edgerep::prefetch(&mu_[m]);
  }

  /// --- transactions -----------------------------------------------------
  /// Same undo-log contract as ReplicaPlan: savepoints nest, rollback
  /// restores every dual variable to its exact prior value (previous values
  /// are journaled, not re-derived), and commit() discards the journal.
  using Savepoint = std::size_t;
  Savepoint savepoint();
  void rollback_to(Savepoint sp);
  void commit() noexcept;
  [[nodiscard]] std::size_t undo_log_size() const noexcept {
    return undo_log_.size();
  }

  /// --- certificate -----------------------------------------------------
  /// Lift y and μ so that dual constraints (9) and (10) hold for every
  /// (m, l) with η ≡ 0:  y_m ≥ |S(q_m)|·(1 − r_m·θ_l)⁺ for all l, and
  /// μ_m ≥ y_m.  Idempotent.
  void repair();

  /// Dual objective (8): Σ_l A(v_l)·θ_l + Σ_m K·μ_m  (η terms are zero).
  [[nodiscard]] double objective() const;

  /// True when (9) and (10) hold for every (query, site) pair with η ≡ 0.
  [[nodiscard]] bool feasible(double tol = 1e-9) const;

 private:
  enum class Var : std::uint8_t { kTheta, kY, kMu };
  struct UndoEntry {
    Var var;
    std::uint32_t index;
    double prev;
  };
  void journal(Var var, std::uint32_t index, double prev) {
    if (journaling_) undo_log_.push_back({var, index, prev});
  }

  const Instance* inst_;
  std::vector<double> theta_;  ///< per site
  std::vector<double> y_;      ///< per query (y_{m,l} is nonzero at one site)
  std::vector<double> mu_;     ///< per query
  std::vector<UndoEntry> undo_log_;
  bool journaling_ = false;
};

}  // namespace edgerep
