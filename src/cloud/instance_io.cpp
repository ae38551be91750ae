#include "cloud/instance_io.h"

#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "net/io.h"

namespace edgerep {

void write_instance(std::ostream& os, const Instance& inst) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "# edgerep instance: " << inst.sites().size() << " sites, "
     << inst.datasets().size() << " datasets, " << inst.queries().size()
     << " queries\n";
  const Graph& g = inst.graph();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    os << "node " << v << ' ' << to_string(g.role(v)) << '\n';
  }
  for (const Edge& e : g.edges()) {
    os << "edge " << e.u << ' ' << e.v << ' ' << e.delay << '\n';
  }
  for (const Site& s : inst.sites()) {
    os << "site " << s.id << ' ' << s.node << ' ' << s.capacity << ' '
       << s.available << ' ' << s.proc_delay << '\n';
  }
  for (const Dataset& d : inst.datasets()) {
    os << "dataset " << d.id << ' ' << d.volume << ' ';
    if (d.origin == kInvalidSite) {
      os << '-';
    } else {
      os << d.origin;
    }
    if (!d.name.empty()) os << ' ' << d.name;
    os << '\n';
  }
  for (const Query& q : inst.queries()) {
    os << "query " << q.id << ' ' << q.home << ' ' << q.rate << ' '
       << q.deadline << ' ' << q.demands.size();
    for (const DatasetDemand& dd : q.demands) {
      os << ' ' << dd.dataset << ' ' << dd.selectivity;
    }
    os << '\n';
  }
  os << "max_replicas " << inst.max_replicas() << '\n';
}

Instance read_instance(std::istream& is) {
  Graph g;
  struct PendingSite {
    NodeId node;
    double capacity;
    double available;
    double proc_delay;
  };
  std::vector<PendingSite> sites;
  struct PendingDataset {
    double volume;
    SiteId origin = kInvalidSite;
    std::string name;
  };
  std::vector<PendingDataset> datasets;
  struct PendingQuery {
    SiteId home;
    double rate;
    double deadline;
    std::vector<DatasetDemand> demands;
  };
  std::vector<PendingQuery> queries;
  std::size_t max_replicas = 3;

  std::string line;
  std::size_t lineno = 0;
  auto fail = [&lineno](const std::string& why) -> void {
    throw std::runtime_error("read_instance: line " + std::to_string(lineno) +
                             ": " + why);
  };
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string kind;
    ss >> kind;
    if (kind == "node") {
      std::uint64_t id = 0;
      std::string role;
      if (!(ss >> id >> role)) fail("malformed node");
      if (id != g.num_nodes()) fail("node ids must be dense");
      g.add_node(parse_role(role));
    } else if (kind == "edge") {
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      double delay = 0.0;
      if (!(ss >> u >> v >> delay)) fail("malformed edge");
      if (u >= g.num_nodes() || v >= g.num_nodes()) fail("edge out of range");
      g.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v), delay);
    } else if (kind == "site") {
      std::uint64_t id = 0;
      PendingSite s{};
      std::uint64_t node = 0;
      if (!(ss >> id >> node >> s.capacity >> s.available >> s.proc_delay)) {
        fail("malformed site");
      }
      if (id != sites.size()) fail("site ids must be dense");
      if (!narrow_id(node, s.node)) fail("site node out of range");
      sites.push_back(s);
    } else if (kind == "dataset") {
      std::uint64_t id = 0;
      PendingDataset d{};
      std::string origin;
      if (!(ss >> id >> d.volume >> origin)) fail("malformed dataset");
      if (id != datasets.size()) fail("dataset ids must be dense");
      if (origin != "-") {
        std::istringstream digits(origin);
        std::uint64_t site = 0;
        if (!(digits >> site) || !digits.eof()) {
          fail("malformed dataset origin");
        }
        if (!narrow_id(site, d.origin)) fail("dataset origin out of range");
      }
      std::getline(ss, d.name);
      if (!d.name.empty() && d.name.front() == ' ') d.name.erase(0, 1);
      datasets.push_back(std::move(d));
    } else if (kind == "query") {
      std::uint64_t id = 0;
      std::uint64_t home = 0;
      std::size_t n = 0;
      PendingQuery q{};
      if (!(ss >> id >> home >> q.rate >> q.deadline >> n)) {
        fail("malformed query");
      }
      if (id != queries.size()) fail("query ids must be dense");
      if (!narrow_id(home, q.home)) fail("query home out of range");
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t ds = 0;
        DatasetDemand dd{};
        if (!(ss >> ds >> dd.selectivity)) fail("query demand list truncated");
        if (!narrow_id(ds, dd.dataset)) fail("demanded dataset out of range");
        q.demands.push_back(dd);
      }
      queries.push_back(std::move(q));
    } else if (kind == "max_replicas") {
      if (!(ss >> max_replicas)) fail("malformed max_replicas");
    } else {
      fail("unknown keyword '" + kind + "'");
    }
  }

  Instance inst(std::move(g));
  for (const PendingSite& s : sites) {
    const SiteId id = inst.add_site(s.node, s.capacity, s.proc_delay);
    inst.set_available(id, s.available);
  }
  for (PendingDataset& d : datasets) {
    inst.add_dataset(d.volume, d.origin, std::move(d.name));
  }
  for (PendingQuery& q : queries) {
    inst.add_query(q.home, q.rate, q.deadline, std::move(q.demands));
  }
  inst.set_max_replicas(max_replicas);
  inst.finalize();
  return inst;
}

}  // namespace edgerep
