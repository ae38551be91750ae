#include "cloud/instance_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/appro.h"
#include "helpers/fixtures.h"

namespace edgerep {
namespace {

void expect_instances_equal(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.graph().num_nodes(), b.graph().num_nodes());
  ASSERT_EQ(a.graph().num_edges(), b.graph().num_edges());
  for (std::size_t e = 0; e < a.graph().num_edges(); ++e) {
    EXPECT_EQ(a.graph().edges()[e].u, b.graph().edges()[e].u);
    EXPECT_EQ(a.graph().edges()[e].v, b.graph().edges()[e].v);
    EXPECT_DOUBLE_EQ(a.graph().edges()[e].delay, b.graph().edges()[e].delay);
  }
  ASSERT_EQ(a.sites().size(), b.sites().size());
  for (std::size_t s = 0; s < a.sites().size(); ++s) {
    EXPECT_EQ(a.sites()[s].node, b.sites()[s].node);
    EXPECT_DOUBLE_EQ(a.sites()[s].capacity, b.sites()[s].capacity);
    EXPECT_DOUBLE_EQ(a.sites()[s].available, b.sites()[s].available);
    EXPECT_DOUBLE_EQ(a.sites()[s].proc_delay, b.sites()[s].proc_delay);
  }
  ASSERT_EQ(a.datasets().size(), b.datasets().size());
  for (std::size_t d = 0; d < a.datasets().size(); ++d) {
    EXPECT_DOUBLE_EQ(a.datasets()[d].volume, b.datasets()[d].volume);
    EXPECT_EQ(a.datasets()[d].origin, b.datasets()[d].origin);
    EXPECT_EQ(a.datasets()[d].name, b.datasets()[d].name);
  }
  ASSERT_EQ(a.queries().size(), b.queries().size());
  for (std::size_t m = 0; m < a.queries().size(); ++m) {
    EXPECT_EQ(a.queries()[m].home, b.queries()[m].home);
    EXPECT_DOUBLE_EQ(a.queries()[m].rate, b.queries()[m].rate);
    EXPECT_DOUBLE_EQ(a.queries()[m].deadline, b.queries()[m].deadline);
    ASSERT_EQ(a.queries()[m].demands.size(), b.queries()[m].demands.size());
    for (std::size_t i = 0; i < a.queries()[m].demands.size(); ++i) {
      EXPECT_EQ(a.queries()[m].demands[i].dataset,
                b.queries()[m].demands[i].dataset);
      EXPECT_DOUBLE_EQ(a.queries()[m].demands[i].selectivity,
                       b.queries()[m].demands[i].selectivity);
    }
  }
  EXPECT_EQ(a.max_replicas(), b.max_replicas());
}

TEST(InstanceIo, RoundTripsTinyFixture) {
  const Instance a = testing::TinyFixture::make();
  std::ostringstream os;
  write_instance(os, a);
  std::istringstream is(os.str());
  const Instance b = read_instance(is);
  expect_instances_equal(a, b);
}

TEST(InstanceIo, RoundTripsGeneratedInstanceExactly) {
  const Instance a = testing::medium_instance(17, /*f_max=*/4);
  std::ostringstream os;
  write_instance(os, a);
  std::istringstream is(os.str());
  const Instance b = read_instance(is);
  expect_instances_equal(a, b);
  // Behavioural equality: the algorithm produces identical results.
  const ApproResult ra = appro_g(a);
  const ApproResult rb = appro_g(b);
  EXPECT_DOUBLE_EQ(ra.metrics.admitted_volume, rb.metrics.admitted_volume);
  EXPECT_EQ(ra.metrics.admitted_queries, rb.metrics.admitted_queries);
}

TEST(InstanceIo, PreservesDatasetNamesWithSpaces) {
  Graph g;
  g.add_node(NodeRole::kCloudlet);
  Instance a(std::move(g));
  const SiteId s = a.add_site(0, 5.0, 0.1);
  a.add_dataset(1.5, s, "web logs Q3 2019");
  a.add_dataset(2.0, kInvalidSite, "");  // unnamed, no origin
  a.add_query(s, 1.0, 10.0, {{0, 0.5}});
  a.finalize();
  std::ostringstream os;
  write_instance(os, a);
  std::istringstream is(os.str());
  const Instance b = read_instance(is);
  EXPECT_EQ(b.dataset(0).name, "web logs Q3 2019");
  EXPECT_EQ(b.dataset(1).name, "");
  EXPECT_EQ(b.dataset(1).origin, kInvalidSite);
}

TEST(InstanceIo, PreservesReducedAvailability) {
  Graph g;
  g.add_node(NodeRole::kCloudlet);
  Instance a(std::move(g));
  const SiteId s = a.add_site(0, 10.0, 0.1);
  a.set_available(s, 3.5);
  a.add_dataset(1.0, s);
  a.add_query(s, 1.0, 10.0, {{0, 0.5}});
  a.finalize();
  std::ostringstream os;
  write_instance(os, a);
  std::istringstream is(os.str());
  const Instance b = read_instance(is);
  EXPECT_DOUBLE_EQ(b.site(0).capacity, 10.0);
  EXPECT_DOUBLE_EQ(b.site(0).available, 3.5);
}

TEST(InstanceIo, RejectsMalformedInput) {
  {
    std::istringstream is("blob 1 2 3\n");
    EXPECT_THROW(read_instance(is), std::runtime_error);
  }
  {
    std::istringstream is("node 5 dc\n");  // sparse id
    EXPECT_THROW(read_instance(is), std::runtime_error);
  }
  {
    std::istringstream is(
        "node 0 cloudlet\nsite 0 0 1 1 0.1\ndataset 0 1.0 0\n"
        "query 0 0 1.0 1.0 2 0 0.5\n");  // demand list truncated
    EXPECT_THROW(read_instance(is), std::runtime_error);
  }
}

TEST(InstanceIo, RejectsInconsistentInstance) {
  // References a dataset that does not exist → finalize() must throw.
  std::istringstream is(
      "node 0 cloudlet\nsite 0 0 1 1 0.1\ndataset 0 1.0 0\n"
      "query 0 0 1.0 1.0 1 7 0.5\nmax_replicas 2\n");
  EXPECT_THROW(read_instance(is), std::invalid_argument);
}

// Ids wider than 32 bits must fail with the offending line number instead
// of wrapping onto a valid id; so must a non-numeric dataset origin.
TEST(InstanceIo, RejectsIdsThatDoNotFitAndNonNumericOrigins) {
  const std::string head = "node 0 cloudlet\nnode 1 dc\nedge 0 1 0.1\n";
  const std::string site = "site 0 0 10 10 0.1\n";
  const std::string dataset = "dataset 0 1.0 0\n";
  const std::string query = "query 0 0 1.0 1.0 1 0 0.5\n";
  const std::pair<std::string, std::string> cases[] = {
      {head + "site 0 4294967297 10 10 0.1\n", "line 4:"},      // node 1
      {head + site + "dataset 0 1.0 4294967296\n", "line 5:"},  // site 0
      {head + site + "dataset 0 1.0 zero\n", "line 5:"},
      {head + site + dataset + "query 0 4294967296 1.0 1.0 1 0 0.5\n",
       "line 6:"},  // homed at site 0
      {head + site + dataset + "query 0 0 1.0 1.0 1 4294967296 0.5\n",
       "line 6:"},  // demands dataset 0
      {head + site + dataset + query + "query 1 4294967295 1.0 1.0 0\n",
       "line 7:"},  // kInvalidSite
  };
  for (const auto& [text, line] : cases) {
    std::istringstream is(text);
    try {
      (void)read_instance(is);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace edgerep
