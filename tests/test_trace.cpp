// ChromeTrace: the Chrome trace-event export of a periodic pattern
// (report::timeline_to_chrome_json, what `madpipe plan --trace` writes).
#include "report/timeline_export.hpp"

#include <gtest/gtest.h>

#include <string>

#include "schedule/one_f_one_b.hpp"
#include "util/expect.hpp"

namespace madpipe {
namespace {

struct Fixture {
  Chain chain = make_uniform_chain(4, ms(5), ms(10), MB, MB, MB);
  Platform platform{2, 10 * GB, 1e6 * GB};
  Plan plan = *plan_one_f_one_b(
      make_contiguous_allocation(chain, {{1, 2}, {3, 4}}, 2), chain, platform);
};

std::string chrome_trace(const Fixture& f, int periods) {
  return report::timeline_to_chrome_json(f.plan.pattern, f.plan.allocation,
                                         {periods});
}

TEST(ChromeTrace, IsWellFormedJson) {
  const Fixture f;
  const std::string doc = chrome_trace(f, 3);
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.back(), '}');
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(ChromeTrace, NamesEveryResourceRow) {
  const Fixture f;
  const std::string doc = chrome_trace(f, 2);
  EXPECT_NE(doc.find("\"name\":\"gpu0\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"gpu1\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"link0-1\""), std::string::npos);
}

TEST(ChromeTrace, EmitsCompleteEventsWithBatchArgs) {
  const Fixture f;
  const std::string doc = chrome_trace(f, 2);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"batch\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"compute\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"comm\""), std::string::npos);
}

TEST(ChromeTrace, SkipsPreFillInstances) {
  // Ops with index shift h only appear once period ≥ h (batch ≥ 0): a
  // one-period export holds exactly one event per unshifted op and no
  // event with a negative batch index.
  const Fixture f;
  std::size_t unshifted = 0;
  std::size_t shifted = 0;
  for (const PatternOp& op : f.plan.pattern.ops) {
    ++(op.shift == 0 ? unshifted : shifted);
  }
  ASSERT_GT(shifted, 0u) << "the fixture must have a shifted op";
  const std::string one = chrome_trace(f, 1);
  std::size_t events = 0;
  for (std::size_t at = one.find("\"ph\":\"X\""); at != std::string::npos;
       at = one.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, unshifted);
  EXPECT_EQ(one.find("\"batch\":-"), std::string::npos);
}

TEST(ChromeTrace, RejectsZeroPeriods) {
  const Fixture f;
  EXPECT_THROW(chrome_trace(f, 0), ContractViolation);
}

}  // namespace
}  // namespace madpipe
