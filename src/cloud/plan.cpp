#include "cloud/plan.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace edgerep {

namespace {

/// Index of dataset n inside query m's demand list, or npos.
std::size_t demand_index(const Query& q, DatasetId n) {
  for (std::size_t i = 0; i < q.demands.size(); ++i) {
    if (q.demands[i].dataset == n) return i;
  }
  return static_cast<std::size_t>(-1);
}

/// Position of site s in a replica list, or the list's size when absent.
std::size_t replica_slot(const std::vector<SiteId>& sites, SiteId s) {
  return static_cast<std::size_t>(std::find(sites.begin(), sites.end(), s) -
                                  sites.begin());
}

}  // namespace

ReplicaPlan::ReplicaPlan(const Instance& inst) : inst_(&inst) {
  if (!inst.finalized()) {
    throw std::invalid_argument("ReplicaPlan: instance not finalized");
  }
  replicas_.resize(inst.datasets().size());
  users_.resize(inst.datasets().size());
  demand_begin_.resize(inst.queries().size() + 1);
  std::size_t slots = 0;
  for (const Query& q : inst.queries()) {
    demand_begin_[q.id] = slots;
    slots += q.demands.size();
  }
  demand_begin_.back() = slots;
  demand_site_.assign(slots, kInvalidSite);
  load_.assign(inst.sites().size(), 0.0);
}

std::span<const SiteId> ReplicaPlan::demand_sites(QueryId m) const {
  // n + 1 offsets: .at(m + 1) throws for every m past the last query.
  const std::size_t end = demand_begin_.at(std::size_t{m} + 1);
  return {demand_site_.data() + demand_begin_[m], demand_site_.data() + end};
}

void ReplicaPlan::place_replica(DatasetId n, SiteId s) {
  auto& sites = replicas_.at(n);
  if (std::find(sites.begin(), sites.end(), s) != sites.end()) return;
  if (sites.size() >= inst_->max_replicas()) {
    throw std::runtime_error("place_replica: replica budget K exhausted");
  }
  if (s >= inst_->sites().size()) {
    throw std::invalid_argument("place_replica: site out of range");
  }
  sites.push_back(s);
  users_[n].push_back(0);
  if (journaling_) {
    undo_log_.push_back({UndoEntry::Op::kPlaceReplica, n, s, 0, 0, 0.0});
  }
}

void ReplicaPlan::remove_replica(DatasetId n, SiteId s) {
  auto& sites = replicas_.at(n);
  const std::size_t slot = replica_slot(sites, s);
  if (slot == sites.size()) {
    throw std::runtime_error("remove_replica: no replica at site");
  }
  auto& users = users_[n];
  if (users[slot] != 0) {
    throw std::runtime_error("remove_replica: replica still in use");
  }
  if (journaling_) {
    undo_log_.push_back({UndoEntry::Op::kRemoveReplica, n, s, 0,
                         static_cast<std::uint32_t>(slot), 0.0});
  }
  sites.erase(sites.begin() + slot);
  users.erase(users.begin() + slot);
}

bool ReplicaPlan::has_replica(DatasetId n, SiteId s) const {
  const auto& sites = replicas_.at(n);
  return std::find(sites.begin(), sites.end(), s) != sites.end();
}

std::size_t ReplicaPlan::replica_users(DatasetId n, SiteId s) const {
  const auto& sites = replicas_.at(n);
  const std::size_t slot = replica_slot(sites, s);
  return slot == sites.size() ? 0 : users_[n][slot];
}

std::size_t ReplicaPlan::replica_count(DatasetId n) const {
  return replicas_.at(n).size();
}

const std::vector<SiteId>& ReplicaPlan::replica_sites(DatasetId n) const {
  return replicas_.at(n);
}

void ReplicaPlan::assign(QueryId m, DatasetId n, SiteId s) {
  const Query& q = inst_->query(m);
  const std::size_t di = demand_index(q, n);
  if (di == static_cast<std::size_t>(-1)) {
    throw std::invalid_argument("assign: query does not demand this dataset");
  }
  // inst_->query(m) checked m, and demand_index found di.
  SiteId& assigned = demand_site_[demand_begin_[m] + di];
  if (assigned != kInvalidSite) {
    throw std::runtime_error("assign: demand already assigned");
  }
  const std::size_t slot = replica_slot(replicas_.at(n), s);
  if (slot == replicas_[n].size()) {
    throw std::runtime_error("assign: no replica at target site");
  }
  const double need = resource_demand(*inst_, q, q.demands[di]);
  if (!fits(s, need)) {
    throw std::runtime_error("assign: insufficient residual capacity");
  }
  if (journaling_) {
    undo_log_.push_back({UndoEntry::Op::kAssign, n, s, m,
                         static_cast<std::uint32_t>(di), load_[s]});
  }
  assigned = s;
  load_[s] += need;
  ++users_[n][slot];
}

void ReplicaPlan::unassign(QueryId m, DatasetId n) {
  const Query& q = inst_->query(m);
  const std::size_t di = demand_index(q, n);
  const SiteId s = di == static_cast<std::size_t>(-1)
                       ? kInvalidSite
                       : demand_site_[demand_begin_[m] + di];
  if (s == kInvalidSite) {
    throw std::runtime_error("unassign: demand is not assigned");
  }
  if (journaling_) {
    undo_log_.push_back({UndoEntry::Op::kUnassign, n, s, m,
                         static_cast<std::uint32_t>(di), load_[s]});
  }
  load_[s] -= resource_demand(*inst_, q, q.demands[di]);
  demand_site_[demand_begin_[m] + di] = kInvalidSite;
  // An assigned demand's replica cannot be removed, so its slot exists.
  --users_[n][replica_slot(replicas_[n], s)];
}

ReplicaPlan::Savepoint ReplicaPlan::savepoint() {
  journaling_ = true;
  return undo_log_.size();
}

void ReplicaPlan::rollback_to(Savepoint sp) {
  if (sp > undo_log_.size()) {
    throw std::invalid_argument("rollback_to: savepoint ahead of undo log");
  }
  // LIFO replay: when entry k is undone every later entry already is, so the
  // plan is in exactly the state right after mutation k — a placed replica
  // is the last element of its list (with no users), a removed one
  // re-inserts at its journaled slot (it had none), and an assignment's
  // replica is still in its list.
  while (undo_log_.size() > sp) {
    const UndoEntry& e = undo_log_.back();
    auto& sites = replicas_[e.dataset];
    auto& users = users_[e.dataset];
    switch (e.op) {
      case UndoEntry::Op::kPlaceReplica:
        sites.pop_back();
        users.pop_back();
        break;
      case UndoEntry::Op::kRemoveReplica:
        sites.insert(sites.begin() + e.index, e.site);
        users.insert(users.begin() + e.index, 0);
        break;
      case UndoEntry::Op::kAssign:
        demand_site_[demand_begin_[e.query] + e.index] = kInvalidSite;
        load_[e.site] = e.prev_load;
        --users[replica_slot(sites, e.site)];
        break;
      case UndoEntry::Op::kUnassign:
        demand_site_[demand_begin_[e.query] + e.index] = e.site;
        load_[e.site] = e.prev_load;
        ++users[replica_slot(sites, e.site)];
        break;
    }
    undo_log_.pop_back();
  }
}

void ReplicaPlan::commit() noexcept {
  undo_log_.clear();
  journaling_ = false;
}

std::optional<SiteId> ReplicaPlan::assignment(QueryId m, DatasetId n) const {
  const Query& q = inst_->query(m);
  const std::size_t di = demand_index(q, n);
  if (di == static_cast<std::size_t>(-1)) return std::nullopt;
  const SiteId s = demand_sites(m)[di];
  return s == kInvalidSite ? std::nullopt : std::optional<SiteId>(s);
}

std::size_t ReplicaPlan::assigned_demands(QueryId m) const {
  const std::span<const SiteId> sites = demand_sites(m);
  return static_cast<std::size_t>(
      std::count_if(sites.begin(), sites.end(),
                    [](SiteId s) { return s != kInvalidSite; }));
}

bool ReplicaPlan::admitted(QueryId m) const {
  const std::span<const SiteId> sites = demand_sites(m);
  return !sites.empty() &&
         std::all_of(sites.begin(), sites.end(),
                     [](SiteId s) { return s != kInvalidSite; });
}

double ReplicaPlan::load(SiteId s) const { return load_.at(s); }

double ReplicaPlan::residual(SiteId s) const {
  return inst_->site(s).available - load_.at(s);
}

bool ReplicaPlan::fits(SiteId s, double amount) const {
  return amount <= residual(s) + kCapacityEps;
}

std::size_t ReplicaPlan::total_replicas() const noexcept {
  std::size_t total = 0;
  for (const auto& r : replicas_) total += r.size();
  return total;
}

PlanMetrics evaluate(const ReplicaPlan& plan) {
  const Instance& inst = plan.instance();
  PlanMetrics pm;
  pm.total_queries = inst.queries().size();
  for (const Query& q : inst.queries()) {
    double assigned = 0.0;
    for (const DatasetDemand& dd : q.demands) {
      if (plan.assignment(q.id, dd.dataset)) {
        assigned += inst.dataset(dd.dataset).volume;
      }
    }
    pm.assigned_volume += assigned;
    if (plan.admitted(q.id)) {
      ++pm.admitted_queries;
      pm.admitted_volume += inst.demanded_volume(q.id);
    }
  }
  pm.throughput = pm.total_queries
                      ? static_cast<double>(pm.admitted_queries) /
                            static_cast<double>(pm.total_queries)
                      : 0.0;
  pm.replicas_placed = plan.total_replicas();
  double avail = 0.0;
  double used = 0.0;
  for (const Site& s : inst.sites()) {
    avail += s.available;
    used += plan.load(s.id);
  }
  pm.utilization = avail > 0.0 ? used / avail : 0.0;
  return pm;
}

ValidationResult validate(const ReplicaPlan& plan) {
  const Instance& inst = plan.instance();
  ValidationResult vr;
  auto violation = [&vr](const std::string& msg) {
    vr.ok = false;
    vr.violations.push_back(msg);
  };

  // Constraint (5): replica budget per dataset.
  for (const Dataset& ds : inst.datasets()) {
    if (plan.replica_count(ds.id) > inst.max_replicas()) {
      std::ostringstream os;
      os << "dataset " << ds.id << " has " << plan.replica_count(ds.id)
         << " replicas > K=" << inst.max_replicas();
      violation(os.str());
    }
  }

  // Constraints (2)–(4), rebuilt from scratch per site/demand.
  std::vector<double> load(inst.sites().size(), 0.0);
  for (const Query& q : inst.queries()) {
    for (const DatasetDemand& dd : q.demands) {
      const auto site = plan.assignment(q.id, dd.dataset);
      if (!site) continue;
      // (3): assignment requires a replica.
      if (!plan.has_replica(dd.dataset, *site)) {
        std::ostringstream os;
        os << "query " << q.id << " dataset " << dd.dataset
           << " assigned to site " << *site << " without a replica";
        violation(os.str());
      }
      // (4): deadline.
      const double delay = evaluation_delay(inst, q, dd, *site);
      if (delay > q.deadline + 1e-9) {
        std::ostringstream os;
        os << "query " << q.id << " dataset " << dd.dataset << " at site "
           << *site << " misses deadline: " << delay << " > " << q.deadline;
        violation(os.str());
      }
      load[*site] += resource_demand(inst, q, dd);
    }
  }
  for (const Site& s : inst.sites()) {
    // (2): capacity.
    if (load[s.id] > s.available + 1e-6) {
      std::ostringstream os;
      os << "site " << s.id << " overloaded: " << load[s.id] << " > "
         << s.available;
      violation(os.str());
    }
    // The plan's own ledger must agree with the rebuilt load.
    if (std::abs(load[s.id] - plan.load(s.id)) > 1e-6) {
      std::ostringstream os;
      os << "site " << s.id << " ledger drift: ledger=" << plan.load(s.id)
         << " recomputed=" << load[s.id];
      violation(os.str());
    }
  }
  return vr;
}

}  // namespace edgerep
