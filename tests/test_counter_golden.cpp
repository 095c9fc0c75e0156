// Golden pin of every counter name the planner and serve tier expose: the
// ordered JSON keys of PlannerStats and ServeStats, and the set of
// madpipe_{planner,serve,net}_* registry entries with their `# TYPE` lines.
// Dashboards, perfbench and `madpipe stats` files key on these names, so a
// refactor of the bookkeeping behind them must leave this list unchanged.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "madpipe/planner_stats.hpp"
#include "obs/metrics.hpp"
#include "serve/net/server.hpp"
#include "serve/serve_stats.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"
#include "util/net.hpp"

namespace madpipe {
namespace {

template <typename Stats>
std::vector<std::string> json_keys(const Stats& stats) {
  json::Writer writer;
  stats.write_json(writer);
  const json::ParseResult parsed = json::parse(writer.str());
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  std::vector<std::string> keys;
  for (const auto& member : parsed.value.members()) keys.push_back(member.first);
  return keys;
}

/// The `# TYPE` lines of the planner, serve and net entries, in the
/// registry's name order.
std::vector<std::string> type_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    for (const char* prefix : {"# TYPE madpipe_planner_", "# TYPE madpipe_serve_",
                               "# TYPE madpipe_net_"}) {
      if (line.rfind(prefix, 0) == 0) lines.push_back(line);
    }
  }
  return lines;
}

TEST(ObsCounterGolden, PlannerStatsJsonKeysInOrder) {
  const std::vector<std::string> expected = {
      "dp_probes",
      "dp_states",
      "dp_state_visits",
      "memo_probes",
      "memo_child_lookups",
      "memo_hits",
      "memo_max_load_factor",
      "memo_rehashes",
      "memo_rehashes_avoided",
      "transition_lookups",
      "transition_hits",
      "state_budget_hits",
      "phase1_probes",
      "phase2_probes",
      "speculative_probes",
      "speculative_hits",
      "phase2_speculative_probes",
      "phase2_speculative_hits",
      "phase2_budget_hits",
      "phase2_bb_nodes",
      "phase1_wall_seconds",
      "phase2_wall_seconds",
  };
  EXPECT_EQ(json_keys(PlannerStats{}), expected);
}

TEST(ObsCounterGolden, ServeStatsJsonKeysInOrder) {
  const std::vector<std::string> expected = {
      "requests",
      "hits",
      "scaled_hits",
      "misses",
      "coalesced",
      "rejected",
      "degraded",
      "errors",
      "shutdowns",
      "planner_runs",
      "evictions",
      "expirations",
      "key_collisions",
      "cache_entries",
      "cache_bytes",
      "hit_p50_seconds",
      "hit_p99_seconds",
      "miss_p50_seconds",
      "miss_p99_seconds",
  };
  EXPECT_EQ(json_keys(serve::ServeStats{}), expected);
}

// One plan, one serve miss + hit and one TCP frame touch every block.
TEST(ObsCounterGolden, RegistryNamesAndTypes) {
  serve::ServiceOptions options;
  options.workers = 1;
  serve::PlanService service(options);
  const std::string frame =
      R"({"id":"g","network":{"name":"resnet50","length":8},"gpus":2,)"
      R"("memory_gb":8})"
      "\n";
  {
    serve::net::NetServerOptions net_options;
    net_options.host = "127.0.0.1";
    net_options.port = 0;
    net_options.dispatch_workers = 1;
    serve::net::NetServer server(service, net_options);
    madpipe::net::FdGuard fd = madpipe::net::connect_tcp("127.0.0.1",
                                                         server.port());
    ASSERT_TRUE(fd.valid());
    std::string carry, line;
    for (const char* outcome : {"miss", "hit"}) {
      ASSERT_TRUE(madpipe::net::write_all(fd.get(), frame.data(), frame.size()));
      ASSERT_TRUE(madpipe::net::read_line(fd.get(), line, carry));
      EXPECT_NE(line.find(std::string("\"cache\":\"") + outcome + "\""),
                std::string::npos)
          << line;
      line.clear();
    }
  }

  const std::vector<std::string> expected = {
      "# TYPE madpipe_net_accepted_total counter",
      "# TYPE madpipe_net_bytes_in_total counter",
      "# TYPE madpipe_net_bytes_out_total counter",
      "# TYPE madpipe_net_closed_total counter",
      "# TYPE madpipe_net_connections gauge",
      "# TYPE madpipe_net_frames_total counter",
      "# TYPE madpipe_net_oversized_total counter",
      "# TYPE madpipe_net_protocol_errors_total counter",
      "# TYPE madpipe_net_queue_depth gauge",
      "# TYPE madpipe_net_responses_total counter",
      "# TYPE madpipe_net_shed_depth_total counter",
      "# TYPE madpipe_net_shed_rate_total counter",
      "# TYPE madpipe_planner_dp_probes_total counter",
      "# TYPE madpipe_planner_dp_state_visits_total counter",
      "# TYPE madpipe_planner_dp_states_total counter",
      "# TYPE madpipe_planner_memo_child_lookups_total counter",
      "# TYPE madpipe_planner_memo_hits_total counter",
      "# TYPE madpipe_planner_memo_max_load_factor gauge",
      "# TYPE madpipe_planner_memo_probes_total counter",
      "# TYPE madpipe_planner_memo_rehashes_avoided_total counter",
      "# TYPE madpipe_planner_memo_rehashes_total counter",
      "# TYPE madpipe_planner_phase1_probes_total counter",
      "# TYPE madpipe_planner_phase1_seconds histogram",
      "# TYPE madpipe_planner_phase1_speculative_hits_total counter",
      "# TYPE madpipe_planner_phase1_speculative_probes_total counter",
      "# TYPE madpipe_planner_phase2_bb_nodes_total counter",
      "# TYPE madpipe_planner_phase2_budget_hits_total counter",
      "# TYPE madpipe_planner_phase2_probes_total counter",
      "# TYPE madpipe_planner_phase2_seconds histogram",
      "# TYPE madpipe_planner_phase2_speculative_hits_total counter",
      "# TYPE madpipe_planner_phase2_speculative_probes_total counter",
      "# TYPE madpipe_planner_state_budget_hits_total counter",
      "# TYPE madpipe_planner_transition_hits_total counter",
      "# TYPE madpipe_planner_transition_lookups_total counter",
      "# TYPE madpipe_serve_cache_bytes gauge",
      "# TYPE madpipe_serve_cache_entries gauge",
      "# TYPE madpipe_serve_cache_evictions gauge",
      "# TYPE madpipe_serve_cache_expirations gauge",
      "# TYPE madpipe_serve_cache_key_collisions gauge",
      "# TYPE madpipe_serve_coalesced_total counter",
      "# TYPE madpipe_serve_degraded_total counter",
      "# TYPE madpipe_serve_errors_total counter",
      "# TYPE madpipe_serve_hit_latency_seconds histogram",
      "# TYPE madpipe_serve_hit_rate gauge",
      "# TYPE madpipe_serve_hits_total counter",
      "# TYPE madpipe_serve_miss_latency_seconds histogram",
      "# TYPE madpipe_serve_misses_total counter",
      "# TYPE madpipe_serve_planner_runs_total counter",
      "# TYPE madpipe_serve_queue_depth gauge",
      "# TYPE madpipe_serve_rejected_total counter",
      "# TYPE madpipe_serve_requests_total counter",
      "# TYPE madpipe_serve_scaled_hits_total counter",
      "# TYPE madpipe_serve_shutdowns_total counter",
  };
  EXPECT_EQ(type_lines(obs::Registry::global().text()), expected);
}

}  // namespace
}  // namespace madpipe
