#include "core/plan.hpp"

#include <gtest/gtest.h>

#include "schedule/one_f_one_b.hpp"

namespace madpipe {
namespace {

Plan sample_plan(const Chain& c, const Platform& p) {
  const Allocation a = make_contiguous_allocation(c, {{1, 2}, {3, 4}}, 2);
  auto plan = plan_one_f_one_b(a, c, p);
  EXPECT_TRUE(plan.has_value());
  return *plan;
}

TEST(Plan, SpeedupAndThroughput) {
  const Chain c = make_uniform_chain(4, ms(5), ms(10), MB, MB, MB);
  const Platform p{2, 10 * GB, 1e6 * GB};
  const Plan plan = sample_plan(c, p);
  EXPECT_NEAR(plan.throughput() * plan.period(), 1.0, 1e-12);
  EXPECT_NEAR(plan.speedup(c), c.total_compute() / plan.period(), 1e-12);
  EXPECT_GT(plan.speedup(c), 1.0);
}

TEST(Plan, JsonDumpContainsStructure) {
  const Chain c = make_uniform_chain(4, ms(5), ms(10), MB, MB, MB);
  const Platform p{2, 10 * GB, 1e6 * GB};
  const Plan plan = sample_plan(c, p);
  const std::string json = plan_to_json(plan, c, p);
  EXPECT_NE(json.find("\"planner\":\"1f1b*\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\":["), std::string::npos);
  EXPECT_NE(json.find("\"ops\":["), std::string::npos);
  EXPECT_NE(json.find("\"period\":"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Plan, HumanReadableDump) {
  const Chain c = make_uniform_chain(4, ms(5), ms(10), MB, MB, MB);
  const Platform p{2, 10 * GB, 1e6 * GB};
  const Plan plan = sample_plan(c, p);
  const std::string text = plan_to_string(plan, c, p);
  EXPECT_NE(text.find("stage 0"), std::string::npos);
  EXPECT_NE(text.find("gpu1"), std::string::npos);
  EXPECT_NE(text.find("speedup"), std::string::npos);
}

}  // namespace
}  // namespace madpipe
