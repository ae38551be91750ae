#include "cloud/plan_io.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace edgerep {

void write_plan(std::ostream& os, const ReplicaPlan& plan) {
  const Instance& inst = plan.instance();
  os << "# edgerep plan: " << plan.total_replicas() << " replicas\n";
  for (const Dataset& d : inst.datasets()) {
    for (const SiteId l : plan.replica_sites(d.id)) {
      os << "replica " << d.id << ' ' << l << '\n';
    }
  }
  for (const Query& q : inst.queries()) {
    for (const DatasetDemand& dd : q.demands) {
      const auto site = plan.assignment(q.id, dd.dataset);
      if (site) {
        os << "assign " << q.id << ' ' << dd.dataset << ' ' << *site << '\n';
      }
    }
  }
}

ReplicaPlan read_plan(const Instance& inst, std::istream& is) {
  ReplicaPlan plan(inst);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string kind;
    ss >> kind;
    auto fail = [&](const std::string& why) -> void {
      throw std::runtime_error("read_plan: line " + std::to_string(lineno) +
                               ": " + why);
    };
    std::uint64_t m = 0;
    std::uint64_t n = 0;
    std::uint64_t l = 0;
    DatasetId dataset = 0;
    SiteId site = kInvalidSite;
    if (kind == "replica") {
      if (!(ss >> n >> l)) fail("malformed replica line");
      if (n >= inst.datasets().size()) fail("dataset out of range");
      if (!narrow_id(l, site)) fail("site out of range");
      plan.place_replica(static_cast<DatasetId>(n), site);
    } else if (kind == "assign") {
      if (!(ss >> m >> n >> l)) fail("malformed assign line");
      if (m >= inst.queries().size()) fail("query out of range");
      if (!narrow_id(n, dataset)) fail("dataset out of range");
      if (!narrow_id(l, site)) fail("site out of range");
      plan.assign(static_cast<QueryId>(m), dataset, site);
    } else {
      fail("unknown keyword '" + kind + "'");
    }
  }
  return plan;
}

}  // namespace edgerep
