#include "cloud/plan_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/appro.h"
#include "helpers/fixtures.h"

namespace edgerep {
namespace {

using testing::TinyFixture;

TEST(PlanIo, RoundTripsTinyPlan) {
  const Instance inst = TinyFixture::make();
  ReplicaPlan plan(inst);
  plan.place_replica(0, 0);
  plan.assign(0, 0, 0);
  std::ostringstream os;
  write_plan(os, plan);
  std::istringstream is(os.str());
  const ReplicaPlan back = read_plan(inst, is);
  EXPECT_TRUE(back.has_replica(0, 0));
  ASSERT_TRUE(back.assignment(0, 0).has_value());
  EXPECT_EQ(*back.assignment(0, 0), 0u);
  EXPECT_DOUBLE_EQ(back.load(0), plan.load(0));
}

TEST(PlanIo, RoundTripsAlgorithmOutput) {
  const Instance inst = testing::medium_instance(13, /*f_max=*/3);
  const ReplicaPlan plan = appro_g(inst).plan;
  std::ostringstream os;
  write_plan(os, plan);
  std::istringstream is(os.str());
  const ReplicaPlan back = read_plan(inst, is);
  const PlanMetrics a = evaluate(plan);
  const PlanMetrics b = evaluate(back);
  EXPECT_DOUBLE_EQ(a.admitted_volume, b.admitted_volume);
  EXPECT_EQ(a.admitted_queries, b.admitted_queries);
  EXPECT_EQ(a.replicas_placed, b.replicas_placed);
  EXPECT_TRUE(validate(back).ok);
  // Every assignment matches exactly.
  for (const Query& q : inst.queries()) {
    for (const DatasetDemand& dd : q.demands) {
      EXPECT_EQ(plan.assignment(q.id, dd.dataset),
                back.assignment(q.id, dd.dataset));
    }
  }
}

TEST(PlanIo, EmptyPlanRoundTrips) {
  const Instance inst = TinyFixture::make();
  const ReplicaPlan plan(inst);
  std::ostringstream os;
  write_plan(os, plan);
  std::istringstream is(os.str());
  const ReplicaPlan back = read_plan(inst, is);
  EXPECT_EQ(back.total_replicas(), 0u);
}

TEST(PlanIo, RejectsStructurallyInvalidFiles) {
  const Instance inst = TinyFixture::make(1.0, /*max_replicas=*/1);
  {
    // Assignment without a replica.
    std::istringstream is("assign 0 0 0\n");
    EXPECT_THROW(read_plan(inst, is), std::runtime_error);
  }
  {
    // Over the replica budget.
    std::istringstream is("replica 0 0\nreplica 0 1\n");
    EXPECT_THROW(read_plan(inst, is), std::runtime_error);
  }
  {
    // Dangling dataset id.
    std::istringstream is("replica 9 0\n");
    EXPECT_THROW(read_plan(inst, is), std::runtime_error);
  }
  {
    // Unknown keyword.
    std::istringstream is("placement 0 0\n");
    EXPECT_THROW(read_plan(inst, is), std::runtime_error);
  }
}

TEST(PlanIo, DeadlineViolationLoadsButFailsValidation) {
  // Structural rules pass; the QoS check is validate()'s job.
  const Instance inst = TinyFixture::make(/*deadline=*/1.0);
  std::istringstream is("replica 0 1\nassign 0 0 1\n");
  const ReplicaPlan plan = read_plan(inst, is);
  EXPECT_FALSE(validate(plan).ok);
}

// Ids wider than 32 bits must fail with the offending line number instead
// of wrapping onto a valid site or dataset.
TEST(PlanIo, RejectsIdsThatDoNotFit) {
  const Instance inst = TinyFixture::make(/*deadline=*/5.0);
  const std::pair<std::string, std::string> cases[] = {
      {"replica 0 4294967297\n", "line 1:"},                // site 1
      {"replica 0 1\nassign 0 4294967296 1\n", "line 2:"},  // dataset 0
      {"replica 0 1\nassign 0 0 4294967297\n", "line 2:"},  // site 1
  };
  for (const auto& [text, line] : cases) {
    std::istringstream is(text);
    try {
      (void)read_plan(inst, is);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(line), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace edgerep
