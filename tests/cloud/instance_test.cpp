#include "cloud/instance.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "helpers/fixtures.h"

namespace edgerep {
namespace {

using testing::TinyFixture;

TEST(Instance, TinyFixtureShape) {
  const Instance inst = TinyFixture::make();
  EXPECT_TRUE(inst.finalized());
  EXPECT_EQ(inst.sites().size(), 2u);
  EXPECT_EQ(inst.datasets().size(), 1u);
  EXPECT_EQ(inst.queries().size(), 1u);
  EXPECT_EQ(inst.max_replicas(), 2u);
}

TEST(Instance, SiteAccessors) {
  const Instance inst = TinyFixture::make();
  const Site& cl = inst.site(0);
  EXPECT_EQ(cl.role, NodeRole::kCloudlet);
  EXPECT_DOUBLE_EQ(cl.capacity, 10.0);
  EXPECT_DOUBLE_EQ(cl.available, 10.0);
  EXPECT_DOUBLE_EQ(cl.proc_delay, 0.2);
  EXPECT_FALSE(cl.is_data_center());
  EXPECT_TRUE(inst.site(1).is_data_center());
}

TEST(Instance, PathDelayUsesShortestPath) {
  const Instance inst = TinyFixture::make();
  EXPECT_NEAR(inst.path_delay(0, 1), 1.1, 1e-12);
  EXPECT_NEAR(inst.path_delay(1, 0), 1.1, 1e-12);
  EXPECT_DOUBLE_EQ(inst.path_delay(0, 0), 0.0);
}

TEST(Instance, DemandedVolume) {
  const Instance inst = TinyFixture::make();
  EXPECT_DOUBLE_EQ(inst.demanded_volume(0), 4.0);
  EXPECT_DOUBLE_EQ(inst.total_demanded_volume(), 4.0);
}

TEST(Instance, SiteOfNode) {
  const Instance inst = TinyFixture::make();
  EXPECT_EQ(inst.site_of_node(inst.site(0).node), 0u);
  EXPECT_EQ(inst.site_of_node(inst.site(1).node), 1u);
  // The switch hosts no site.
  EXPECT_EQ(inst.site_of_node(1), kInvalidSite);
  EXPECT_EQ(inst.site_of_node(999), kInvalidSite);
}

TEST(Instance, SetAvailableClampsToCapacity) {
  Graph g;
  g.add_node(NodeRole::kCloudlet);
  Instance inst(std::move(g));
  const SiteId s = inst.add_site(0, 10.0, 0.1);
  inst.set_available(s, 4.0);
  inst.add_dataset(1.0, s);
  inst.add_query(s, 1.0, 100.0, {{0, 0.5}});
  inst.finalize();
  EXPECT_DOUBLE_EQ(inst.site(s).available, 4.0);
  EXPECT_THROW(inst.set_available(s, 11.0), std::invalid_argument);
  EXPECT_THROW(inst.set_available(s, -1.0), std::invalid_argument);
}

TEST(Instance, RejectsBadSite) {
  Graph g;
  g.add_node();
  Instance inst(std::move(g));
  EXPECT_THROW(inst.add_site(5, 1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(inst.add_site(0, -1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(inst.add_site(0, 1.0, -0.1), std::invalid_argument);
}

TEST(Instance, RejectsBadDataset) {
  Graph g;
  g.add_node();
  Instance inst(std::move(g));
  inst.add_site(0, 1.0, 0.1);
  EXPECT_THROW(inst.add_dataset(0.0, 0), std::invalid_argument);
  EXPECT_THROW(inst.add_dataset(-2.0, 0), std::invalid_argument);
  EXPECT_THROW(inst.add_dataset(std::nan(""), 0), std::invalid_argument);
  EXPECT_EQ(inst.add_dataset(std::numeric_limits<double>::infinity(), 0), 0u);
}

TEST(Instance, RejectsBadQuery) {
  Graph g;
  g.add_node();
  Instance inst(std::move(g));
  const SiteId s = inst.add_site(0, 1.0, 0.1);
  const DatasetId d = inst.add_dataset(1.0, s);
  EXPECT_THROW(inst.add_query(s, 0.0, 1.0, {{d, 0.5}}), std::invalid_argument);
  EXPECT_THROW(inst.add_query(s, 1.0, 0.0, {{d, 0.5}}), std::invalid_argument);
  EXPECT_THROW(inst.add_query(s, 1.0, 1.0, {}), std::invalid_argument);
  // NaN would leave the query orders without a strict weak ordering.
  const double nan = std::nan("");
  EXPECT_THROW(inst.add_query(s, nan, 1.0, {{d, 0.5}}), std::invalid_argument);
  EXPECT_THROW(inst.add_query(s, 1.0, nan, {{d, 0.5}}), std::invalid_argument);
  EXPECT_EQ(inst.queries().size(), 0u);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(inst.add_query(s, inf, inf, {{d, 0.5}}), 0u);
}

TEST(Instance, FinalizeCatchesDanglingReferences) {
  {
    Graph g;
    g.add_node();
    Instance inst(std::move(g));
    const SiteId s = inst.add_site(0, 1.0, 0.1);
    inst.add_dataset(1.0, s);
    inst.add_query(s, 1.0, 1.0, {{7, 0.5}});  // dataset 7 does not exist
    EXPECT_THROW(inst.finalize(), std::invalid_argument);
  }
  {
    Graph g;
    g.add_node();
    Instance inst(std::move(g));
    const SiteId s = inst.add_site(0, 1.0, 0.1);
    const DatasetId d = inst.add_dataset(1.0, s);
    inst.add_query(9, 1.0, 1.0, {{d, 0.5}});  // home site 9 does not exist
    EXPECT_THROW(inst.finalize(), std::invalid_argument);
  }
}

TEST(Instance, FinalizeCatchesBadSelectivity) {
  Graph g;
  g.add_node();
  Instance inst(std::move(g));
  const SiteId s = inst.add_site(0, 1.0, 0.1);
  const DatasetId d = inst.add_dataset(1.0, s);
  inst.add_query(s, 1.0, 1.0, {{d, 1.5}});
  EXPECT_THROW(inst.finalize(), std::invalid_argument);
}

TEST(Instance, FinalizeRequiresSites) {
  Graph g;
  g.add_node();
  Instance inst(std::move(g));
  EXPECT_THROW(inst.finalize(), std::invalid_argument);
}

TEST(Instance, FinalizeRequiresPositiveK) {
  Graph g;
  g.add_node();
  Instance inst(std::move(g));
  inst.add_site(0, 1.0, 0.1);
  inst.set_max_replicas(0);
  EXPECT_THROW(inst.finalize(), std::invalid_argument);
}

TEST(Instance, FinalizeIsIdempotent) {
  Instance inst = TinyFixture::make();
  EXPECT_NO_THROW(inst.finalize());
  EXPECT_TRUE(inst.finalized());
}

TEST(Query, DemandsDataset) {
  const Instance inst = TinyFixture::make();
  EXPECT_TRUE(inst.query(0).demands_dataset(0));
  EXPECT_FALSE(inst.query(0).demands_dataset(3));
}

}  // namespace
}  // namespace edgerep
