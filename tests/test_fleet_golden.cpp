// FleetGolden: pins the fleet simulator's dispatch outcome — the event-log
// hash and the engine and planning counters — on the committed example
// trace and on the default seed-42 synthetic trace, under every placement
// policy. The event log is a pure function of (trace, policy), so these
// numbers move only when the simulator's behaviour does: a change to the
// event engine that keeps the (time, seq) pop order must leave them as
// they are.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>

#include "fleet/simulator.hpp"
#include "fleet/trace.hpp"

namespace madpipe::fleet {
namespace {

struct Golden {
  const char* policy;
  std::uint64_t event_log_hash;
  long long events_dispatched;
  long long stale_events;
  long long plans_requested;
};

FleetTrace example_trace() {
  std::ifstream in(std::string(MADPIPE_SOURCE_DIR) +
                   "/examples/fleet_trace.json");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  FleetTraceParse parse = fleet_trace_from_json(text);
  EXPECT_TRUE(parse.ok()) << parse.error;
  return parse.trace;
}

void expect_goldens(const FleetTrace& trace, const Golden (&rows)[3]) {
  for (const Golden& row : rows) {
    FleetOptions options;
    options.policy = row.policy;
    const FleetResult result = run_fleet(trace, options);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.event_log_hash, row.event_log_hash) << row.policy;
    EXPECT_EQ(result.events_dispatched, row.events_dispatched) << row.policy;
    EXPECT_EQ(result.stale_events, row.stale_events) << row.policy;
    EXPECT_EQ(result.plans_requested, row.plans_requested) << row.policy;
  }
}

TEST(FleetGolden, ExampleTraceUnderEveryPolicy) {
  constexpr Golden kRows[3] = {
      {"fifo", 8496141734676793373ull, 11, 1, 5},
      {"deadline", 7547661174069680773ull, 11, 1, 5},
      {"affinity", 18335584329805140604ull, 11, 1, 5},
  };
  expect_goldens(example_trace(), kRows);
}

TEST(FleetGolden, SeedFortyTwoSyntheticTraceUnderEveryPolicy) {
  constexpr Golden kRows[3] = {
      {"fifo", 3609291352309347620ull, 52, 2, 26},
      {"deadline", 15594548090354770070ull, 53, 3, 27},
      {"affinity", 5064798132773905234ull, 52, 2, 26},
  };
  expect_goldens(synthesize_fleet_trace(SyntheticTraceConfig{}), kRows);
}

}  // namespace
}  // namespace madpipe::fleet
