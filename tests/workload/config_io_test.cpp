#include "workload/config_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace edgerep {
namespace {

TEST(ConfigIo, RoundTripsEveryField) {
  WorkloadConfig cfg;
  cfg.network_size = 77;
  cfg.topology.link_prob = 0.31;
  cfg.dc_capacity = {123.0, 456.0};
  cfg.cl_capacity = {3.5, 9.25};
  cfg.min_queries = 11;
  cfg.max_queries = 99;
  cfg.max_datasets_per_query = 4;
  cfg.selectivity = {0.07, 0.66};
  cfg.deadline_per_gb = {0.2, 0.9};
  cfg.home_at_cloudlet = 0.42;
  cfg.max_replicas = 5;
  std::ostringstream os;
  write_workload_config(os, cfg);
  std::istringstream is(os.str());
  const WorkloadConfig back = read_workload_config(is);
  for (const std::string& key : workload_config_keys()) {
    EXPECT_DOUBLE_EQ(get_field(back, key), get_field(cfg, key)) << key;
  }
}

TEST(ConfigIo, PartialFileKeepsDefaults) {
  std::istringstream is("network_size = 64\nmax_replicas = 7\n");
  const WorkloadConfig cfg = read_workload_config(is);
  EXPECT_EQ(cfg.network_size, 64u);
  EXPECT_EQ(cfg.max_replicas, 7u);
  const WorkloadConfig dflt;
  EXPECT_DOUBLE_EQ(cfg.dc_capacity.lo, dflt.dc_capacity.lo);
  EXPECT_EQ(cfg.min_queries, dflt.min_queries);
}

TEST(ConfigIo, CommentsAndWhitespaceIgnored) {
  std::istringstream is(
      "# a comment\n"
      "\n"
      "  network_size = 40  # trailing comment\n"
      "\t max_queries=55\n");
  const WorkloadConfig cfg = read_workload_config(is);
  EXPECT_EQ(cfg.network_size, 40u);
  EXPECT_EQ(cfg.max_queries, 55u);
}

TEST(ConfigIo, UnknownKeyThrows) {
  std::istringstream is("netwrok_size = 40\n");
  EXPECT_THROW(read_workload_config(is), std::runtime_error);
}

TEST(ConfigIo, MalformedValueThrows) {
  std::istringstream is("network_size = forty\n");
  EXPECT_THROW(read_workload_config(is), std::runtime_error);
  std::istringstream is2("network_size 40\n");
  EXPECT_THROW(read_workload_config(is2), std::runtime_error);
}

TEST(ConfigIo, CountFieldsRejectFractions) {
  std::istringstream is("max_replicas = 2.5\n");
  EXPECT_THROW(read_workload_config(is), std::runtime_error);
}

TEST(ConfigIo, RejectsNonFiniteValuesAndInexactCounts) {
  auto error = [](const std::string& text) {
    std::istringstream is(text);
    try {
      (void)read_workload_config(is);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(error("network_size = 40\ntopology.metro_delay.lo = nan\n"),
            "config: line 2: value 'nan' is not finite");
  EXPECT_EQ(error("dc_capacity.hi = inf\n"),
            "config: line 1: value 'inf' is not finite");
  // 2^54: an integer, but past the range where a double holds them all.
  EXPECT_EQ(error("max_replicas = 18014398509481984\n"),
            "config: line 1: max_replicas must be an integer in [0, 2^53]");
  EXPECT_EQ(error("min_queries = 1e30\n"),
            "config: line 1: min_queries must be an integer in [0, 2^53]");
  std::istringstream top("max_replicas = 9007199254740992\n");
  EXPECT_EQ(read_workload_config(top).max_replicas, 9007199254740992u);
}

TEST(ConfigIo, RejectsCountsPastTheIdSpace) {
  auto error = [](const std::string& text) {
    std::istringstream is(text);
    try {
      (void)read_workload_config(is);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // Exact doubles below 2^53, but no 32-bit id addresses them.
  EXPECT_EQ(error("network_size = 1e15\n"),
            "config: line 1: network_size must be at most 2^32 - 1 "
            "(32-bit ids)");
  EXPECT_EQ(error("# ok\nmax_queries = 4294967296\n"),
            "config: line 2: max_queries must be at most 2^32 - 1 "
            "(32-bit ids)");
  EXPECT_EQ(error("max_datasets = 1e12\n"),
            "config: line 1: max_datasets must be at most 2^32 - 1 "
            "(32-bit ids)");
  std::istringstream top("max_queries = 4294967295\n");
  EXPECT_EQ(read_workload_config(top).max_queries, 4294967295u);
}

TEST(ConfigIo, SetAndGetFieldByKey) {
  WorkloadConfig cfg;
  set_field(cfg, "dataset_volume.hi", 9.0);
  EXPECT_DOUBLE_EQ(cfg.dataset_volume.hi, 9.0);
  EXPECT_DOUBLE_EQ(get_field(cfg, "dataset_volume.hi"), 9.0);
  EXPECT_THROW(set_field(cfg, "nope", 1.0), std::runtime_error);
  EXPECT_THROW(get_field(cfg, "nope"), std::runtime_error);
}

TEST(ConfigIo, KeysAreUniqueAndNonEmpty) {
  const auto keys = workload_config_keys();
  EXPECT_GT(keys.size(), 20u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_FALSE(keys[i].empty());
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]);
    }
  }
}

TEST(ConfigIo, ParsedConfigGeneratesIdenticalInstances) {
  WorkloadConfig cfg;
  cfg.network_size = 20;
  cfg.max_queries = 30;
  std::ostringstream os;
  write_workload_config(os, cfg);
  std::istringstream is(os.str());
  const WorkloadConfig back = read_workload_config(is);
  const Instance a = generate_instance(cfg, 9);
  const Instance b = generate_instance(back, 9);
  ASSERT_EQ(a.queries().size(), b.queries().size());
  for (std::size_t m = 0; m < a.queries().size(); ++m) {
    EXPECT_DOUBLE_EQ(a.query(m).deadline, b.query(m).deadline);
  }
}

}  // namespace
}  // namespace edgerep
