// Serve protocol tests: strict request parsing (table-driven bad inputs),
// batch shapes, and response serialization.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <set>

#include "models/profile_io.hpp"

namespace madpipe::serve {
namespace {

std::string tiny_profile() {
  const Chain chain = make_uniform_chain(4, ms(2), ms(4), MB, 8 * MB, MB);
  return models::profile_to_string(chain);
}

/// Inline a profile as a JSON string literal (the writer escapes it).
std::string profile_json_field() {
  json::Writer w;
  w.begin_object();
  w.key("p");
  w.value(tiny_profile());
  w.end_object();
  const std::string wrapped = w.str();
  // strip {"p": ... } down to the value literal
  return wrapped.substr(5, wrapped.size() - 6);
}

TEST(ServeProtocol, ParsesMinimalValidRequest) {
  const std::string text = std::string("{\"id\":\"r1\",\"profile_text\":") +
                           profile_json_field() +
                           ",\"gpus\":2,\"memory_gb\":4}";
  const BatchParse batch = parse_requests(text);
  ASSERT_TRUE(batch.ok()) << batch.error;
  ASSERT_EQ(batch.requests.size(), 1u);
  const RequestParse& parse = batch.requests[0];
  ASSERT_TRUE(parse.ok()) << parse.error;
  EXPECT_EQ(parse.id, "r1");
  EXPECT_EQ(parse.request->platform.processors, 2);
  EXPECT_EQ(parse.request->platform.memory_per_processor, 4 * GB);
  EXPECT_EQ(parse.request->chain.length(), 4);
  EXPECT_TRUE(parse.request->options.phase1.dp.allow_special);
}

TEST(ServeProtocol, ParsesNetworkSourceAndOptions) {
  const std::string text =
      R"({"requests":[{"id":"n","network":{"name":"resnet50","length":8},
           "gpus":4,"memory_gb":8,"bandwidth_gbs":25,
           "planner":"madpipe-contig","deadline_ms":150,
           "options":{"iterations":6}}]})";
  const BatchParse batch = parse_requests(text);
  ASSERT_TRUE(batch.ok()) << batch.error;
  ASSERT_EQ(batch.requests.size(), 1u);
  const RequestParse& parse = batch.requests[0];
  ASSERT_TRUE(parse.ok()) << parse.error;
  EXPECT_EQ(parse.request->chain.length(), 8);
  EXPECT_FALSE(parse.request->options.phase1.dp.allow_special);
  EXPECT_DOUBLE_EQ(parse.request->deadline_seconds, 0.150);
  EXPECT_EQ(parse.request->options.phase1.iterations, 6);
  EXPECT_DOUBLE_EQ(parse.request->platform.bandwidth, 25 * GB);

  // An options field the planner does not have is rejected.
  const BatchParse best_of = parse_requests(
      R"({"network":{"name":"resnet50"},"gpus":2,"memory_gb":4,
           "options":{"schedule_best_of":2}})");
  ASSERT_TRUE(best_of.ok()) << best_of.error;
  ASSERT_EQ(best_of.requests.size(), 1u);
  EXPECT_FALSE(best_of.requests[0].ok());
  EXPECT_EQ(best_of.requests[0].error,
            "unknown options field 'schedule_best_of'");
}

TEST(ServeProtocol, ParsesExplainAndTimingsFlags) {
  const std::string text =
      R"({"network":{"name":"resnet50"},"gpus":2,"memory_gb":4,
           "options":{"timings":true,"explain":true}})";
  const BatchParse batch = parse_requests(text);
  ASSERT_TRUE(batch.ok()) << batch.error;
  const RequestParse& parse = batch.requests[0];
  ASSERT_TRUE(parse.ok()) << parse.error;
  EXPECT_TRUE(parse.request->report_timings);
  EXPECT_TRUE(parse.request->report_explain);

  // Both default to off.
  const std::string minimal =
      R"({"network":{"name":"resnet50"},"gpus":2,"memory_gb":4})";
  const BatchParse defaults = parse_requests(minimal);
  ASSERT_TRUE(defaults.requests[0].ok());
  EXPECT_FALSE(defaults.requests[0].request->report_timings);
  EXPECT_FALSE(defaults.requests[0].request->report_explain);
}

TEST(ServeProtocol, V2JsonProfileTextParsesBitIdenticalToV1) {
  // The same chain serialized as v1 text and as v2 JSON, both carried in
  // profile_text: version auto-detection must hand the planner bit-identical
  // chains, so every serve entry point accepts either format.
  const Chain chain = make_uniform_chain(4, ms(2), ms(4), MB, 8 * MB, MB);
  for (const std::string& profile :
       {models::profile_to_string(chain),
        models::profile_to_json_string(chain)}) {
    json::Writer w;
    w.begin_object();
    w.key("profile_text");
    w.value(profile);
    w.key("gpus");
    w.value(2);
    w.key("memory_gb");
    w.value(4);
    w.end_object();
    const BatchParse batch = parse_requests(w.str());
    ASSERT_TRUE(batch.ok()) << batch.error;
    ASSERT_EQ(batch.requests.size(), 1u);
    ASSERT_TRUE(batch.requests[0].ok()) << batch.requests[0].error;
    // Canonicalization may drop names but must keep numbers bit-exact.
    const Chain& parsed = batch.requests[0].request->chain;
    ASSERT_EQ(parsed.length(), chain.length());
    EXPECT_EQ(parsed.activation(0), chain.activation(0));
    for (int l = 1; l <= chain.length(); ++l) {
      EXPECT_EQ(parsed.forward_time(l), chain.forward_time(l)) << l;
      EXPECT_EQ(parsed.backward_time(l), chain.backward_time(l)) << l;
      EXPECT_EQ(parsed.weight(l), chain.weight(l)) << l;
      EXPECT_EQ(parsed.activation(l), chain.activation(l)) << l;
    }
  }
}

TEST(ServeProtocol, BareArrayAndSingleObjectShapes) {
  const std::string single = std::string("{\"profile_text\":") +
                             profile_json_field() +
                             ",\"gpus\":2,\"memory_gb\":4}";
  EXPECT_EQ(parse_requests(single).requests.size(), 1u);
  const std::string array = "[" + single + "," + single + "]";
  EXPECT_EQ(parse_requests(array).requests.size(), 2u);
}

struct BadRequestCase {
  const char* name;
  const char* json;
  const char* error_fragment;
};

TEST(ServeProtocol, TableOfBadRequests) {
  const BadRequestCase kCases[] = {
      {"not json", "nope", "expected"},
      {"not object or array", "42", "must be an object or array"},
      {"missing source", R"({"gpus":2,"memory_gb":4})", "exactly one of"},
      {"two sources",
       R"({"profile_text":"x","network":{"name":"resnet50"},"gpus":2,"memory_gb":4})",
       "exactly one of"},
      {"unknown field",
       R"({"network":{"name":"resnet50"},"gpus":2,"memory_gb":4,"bogus":1})",
       "unknown request field 'bogus'"},
      {"unknown network field",
       R"({"network":{"name":"resnet50","qqq":1},"gpus":2,"memory_gb":4})",
       "unknown network field 'qqq'"},
      {"unknown network name",
       R"({"network":{"name":"vgg"},"gpus":2,"memory_gb":4})",
       "network build failed"},
      {"bad profile text",
       R"({"profile_text":"madpipe-profile bad","gpus":2,"memory_gb":4})",
       "profile_text"},
      {"missing gpus",
       R"({"network":{"name":"resnet50"},"memory_gb":4})", "gpus"},
      {"fractional gpus",
       R"({"network":{"name":"resnet50"},"gpus":2.5,"memory_gb":4})", "gpus"},
      {"negative memory",
       R"({"network":{"name":"resnet50"},"gpus":2,"memory_gb":-1})",
       "memory_gb"},
      {"zero bandwidth",
       R"({"network":{"name":"resnet50"},"gpus":2,"memory_gb":4,"bandwidth_gbs":0})",
       "bandwidth_gbs"},
      {"unknown planner",
       R"({"network":{"name":"resnet50"},"gpus":2,"memory_gb":4,"planner":"pipedream2"})",
       "unknown planner"},
      {"negative deadline",
       R"({"network":{"name":"resnet50"},"gpus":2,"memory_gb":4,"deadline_ms":-5})",
       "deadline_ms"},
      {"bad option",
       R"({"network":{"name":"resnet50"},"gpus":2,"memory_gb":4,"options":{"iterations":0}})",
       "iterations"},
      {"unknown option",
       R"({"network":{"name":"resnet50"},"gpus":2,"memory_gb":4,"options":{"engine":1}})",
       "unknown options field"},
      {"explain wrong type",
       R"({"network":{"name":"resnet50"},"gpus":2,"memory_gb":4,"options":{"explain":1}})",
       "options.explain must be a boolean"},
      {"id wrong type",
       R"({"id":7,"network":{"name":"resnet50"},"gpus":2,"memory_gb":4})",
       "id must be a string"},
  };
  for (const BadRequestCase& test_case : kCases) {
    const BatchParse batch = parse_requests(test_case.json);
    std::string error = batch.error;
    if (batch.ok()) {
      ASSERT_EQ(batch.requests.size(), 1u) << test_case.name;
      EXPECT_FALSE(batch.requests[0].ok()) << test_case.name;
      error = batch.requests[0].error;
    }
    EXPECT_NE(error.find(test_case.error_fragment), std::string::npos)
        << test_case.name << ": got '" << error << "'";
  }
}

TEST(ServeProtocol, RejectsMaxStatesOutOfRange) {
  const auto parse_max_states = [](const std::string& value) {
    return parse_requests(
        R"({"network":{"name":"resnet50","length":8},"gpus":4,"memory_gb":8,)"
        R"("options":{"max_states":)" + value + "}}");
  };
  // Past SIZE_MAX, fractional, below 1 or not a number: each is a protocol
  // error, never a silently shrunk state budget.
  for (const char* bad :
       {"1e300", "2e19", "18446744073709551616", "1.5", "0", "-3", "0.5",
        "\"100\""}) {
    const BatchParse batch = parse_max_states(bad);
    ASSERT_TRUE(batch.ok()) << bad << ": " << batch.error;
    ASSERT_EQ(batch.requests.size(), 1u) << bad;
    EXPECT_FALSE(batch.requests[0].ok()) << bad;
    EXPECT_EQ(batch.requests[0].error,
              "options.max_states must be an integer in [1, 2^64)")
        << bad;
  }
  // The largest double below 2^64 and the smallest budget both convert.
  const std::pair<const char*, std::size_t> kGood[] = {
      {"1", 1}, {"250000", 250000}, {"1e6", 1000000},
      {"18446744073709549568", 18446744073709549568ull}};
  for (const auto& [good, expected] : kGood) {
    const BatchParse batch = parse_max_states(good);
    ASSERT_TRUE(batch.ok()) << good << ": " << batch.error;
    ASSERT_TRUE(batch.requests[0].ok()) << good << ": "
                                        << batch.requests[0].error;
    EXPECT_EQ(batch.requests[0].request->options.phase1.dp.max_states,
              expected)
        << good;
  }
}

TEST(ServeProtocol, BadRequestInBatchDoesNotPoisonNeighbours) {
  const std::string text = std::string("{\"requests\":[") +
                           R"({"id":"bad","gpus":2,"memory_gb":4},)" +
                           "{\"id\":\"good\",\"profile_text\":" +
                           profile_json_field() +
                           ",\"gpus\":2,\"memory_gb\":4}]}";
  const BatchParse batch = parse_requests(text);
  ASSERT_TRUE(batch.ok()) << batch.error;
  ASSERT_EQ(batch.requests.size(), 2u);
  EXPECT_FALSE(batch.requests[0].ok());
  EXPECT_EQ(batch.requests[0].id, "bad");  // id echoed even on failure
  EXPECT_TRUE(batch.requests[1].ok()) << batch.requests[1].error;
}

TEST(ServeProtocol, ResponseSerializationRoundTrips) {
  PlanResponse response = error_response("r9", "boom");
  response.latency_seconds = 0.002;
  const std::string text = response_to_json(response);
  const json::ParseResult parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.value.string_or("id", ""), "r9");
  EXPECT_EQ(parsed.value.string_or("status", ""), "error");
  EXPECT_EQ(parsed.value.string_or("cache", ""), "none");
  EXPECT_EQ(parsed.value.string_or("error", ""), "boom");
  EXPECT_DOUBLE_EQ(parsed.value.number_or("latency_ms", 0.0), 2.0);
}

TEST(ServeProtocol, ResponseCarriesExplainBlockWhenPresent) {
  PlanResponse response = error_response("rx", "boom");
  report::ExplainSummary summary;
  summary.period = 0.25;
  summary.critical_resource = "gpu1";
  summary.critical_utilization = 0.75;
  summary.bubble_fraction = 0.25;
  summary.mean_gpu_utilization = 0.5;
  summary.memory_peak_bytes = 1024.0;
  summary.memory_headroom_bytes = 512.0;
  summary.binding_gpu = 1;
  summary.binding_term = report::MemoryTerm::Activations;
  response.explain = summary;
  const json::ParseResult parsed = json::parse(response_to_json(response));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const json::Value* block = parsed.value.find("explain");
  ASSERT_NE(block, nullptr);
  EXPECT_DOUBLE_EQ(block->number_or("period", 0.0), 0.25);
  EXPECT_EQ(block->string_or("critical_resource", ""), "gpu1");
  EXPECT_DOUBLE_EQ(block->number_or("critical_utilization", 0.0), 0.75);
  EXPECT_DOUBLE_EQ(block->number_or("bubble_fraction", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(block->number_or("memory_peak_bytes", 0.0), 1024.0);
  EXPECT_DOUBLE_EQ(block->number_or("memory_headroom_bytes", 0.0), 512.0);
  EXPECT_DOUBLE_EQ(block->number_or("binding_gpu", -1.0), 1.0);
  EXPECT_EQ(block->string_or("binding_term", ""), "activations");

  // No summary attached → no block in the document.
  const json::ParseResult bare =
      json::parse(response_to_json(error_response("ry", "boom")));
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value.find("explain"), nullptr);
}

TEST(ServeProtocol, BatchDocumentCarriesSchemaAndStats) {
  const std::vector<PlanResponse> responses = {error_response("a", "x")};
  ServeStats stats;
  stats.requests = 5;
  const std::string text = batch_to_json(responses, stats);
  const json::ParseResult parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.value.string_or("schema", ""), kServeSchema);
  const json::Value* list = parsed.value.find("responses");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->items().size(), 1u);
  const json::Value* stats_value = parsed.value.find("stats");
  ASSERT_NE(stats_value, nullptr);
  EXPECT_DOUBLE_EQ(stats_value->number_or("requests", 0.0), 5.0);
}

TEST(ServeProtocol, EveryResponseStatusRoundTripsThroughTheSerializer) {
  // Table-driven over the WHOLE enum (incl. Shutdown, added with the TCP
  // front-end): each status must serialize to its distinct wire name and
  // survive a JSON round-trip. A new enumerator without a row here — or
  // two enumerators sharing a wire name — fails loudly.
  struct Row {
    ResponseStatus status;
    const char* wire;
  };
  const std::vector<Row> table = {
      {ResponseStatus::Ok, "ok"},
      {ResponseStatus::Infeasible, "infeasible"},
      {ResponseStatus::Rejected, "rejected"},
      {ResponseStatus::Error, "error"},
      {ResponseStatus::Shutdown, "shutdown"},
  };
  std::set<std::string> seen;
  for (const Row& row : table) {
    EXPECT_STREQ(to_string(row.status), row.wire);
    EXPECT_TRUE(seen.insert(row.wire).second)
        << "duplicate wire name " << row.wire;
    PlanResponse response;
    response.id = "status-probe";
    response.status = row.status;
    response.error = "e";
    const json::ParseResult parsed = json::parse(response_to_json(response));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.value.string_or("status", ""), row.wire);
  }
  // If the enum grows, the table must grow with it: probe one past the
  // last known enumerator — to_string must still return a printable
  // sentinel rather than walking off the switch.
  EXPECT_EQ(table.size(), 5u);
  EXPECT_STREQ(to_string(static_cast<ResponseStatus>(table.size())),
               "unknown");
}

// The bytes a served response carries, pinned for every cache path a plan
// can take out of the service: the miss that plans it, a plain hit, a hit
// in power-of-two rescaled units (times x4, bytes x2), explain hits in both
// unit systems (the first on an entry whose miss asked for no summary) and
// a negative-cache hit. Latency is zeroed and the trace id fixed; nothing
// else in a response varies run to run.
TEST(ServeProtocol, HitResponseBytesGolden) {
  const auto chain = [](double time_factor, double byte_factor) {
    std::vector<Layer> layers;
    for (int l = 1; l <= 6; ++l) {
      Layer layer;
      layer.name = "g" + std::to_string(l);
      layer.forward_time = ms(1.0 + 0.37 * l) * time_factor;
      layer.backward_time = ms(2.0 + 0.61 * l) * time_factor;
      layer.weight_bytes = (3.0 + l) * MB * byte_factor;
      layer.output_bytes = (40.0 + 7.0 * l) * MB * byte_factor;
      layers.push_back(layer);
    }
    return Chain("golden", 25 * MB * byte_factor, std::move(layers));
  };
  const auto request = [&](const char* id, double time_factor,
                           double byte_factor, double memory_gb,
                           bool explain) {
    MadPipeOptions options;
    options.phase1.dp.grid = Discretization::coarse();
    PlanRequest r{id,
                  chain(time_factor, byte_factor),
                  Platform{3, memory_gb * GB * byte_factor,
                           12 * GB * byte_factor / time_factor},
                  options,
                  0.0};
    r.report_explain = explain;
    return r;
  };
  PlanService service;
  const auto served = [&](const PlanRequest& r) {
    PlanResponse response = service.plan(r);
    response.latency_seconds = 0.0;
    response.trace_id = 0xfeedULL;
    return response_to_json(response);
  };

  EXPECT_EQ(served(request("miss", 1, 1, 2, false)),
            R"({"id":"miss","trace_id":"000000000000feed","status":"ok")"
            R"(,"cache":"miss","degraded":false,"latency_ms":0)"
            R"(,"plan":{"planner":"madpipe","period":0.01482)"
            R"(,"phase1_period":0.01482,"throughput":67.47638326585695)"
            R"(,"allocation":"1-1@2;2-3@0;4-5@1;6-6@2","num_stages":4)"
            R"(,"pattern_ops":14}})");
  EXPECT_EQ(served(request("hit", 1, 1, 2, false)),
            R"({"id":"hit","trace_id":"000000000000feed","status":"ok")"
            R"(,"cache":"hit","degraded":false,"latency_ms":0)"
            R"(,"plan":{"planner":"madpipe","period":0.01482)"
            R"(,"phase1_period":0.01482,"throughput":67.47638326585695)"
            R"(,"allocation":"1-1@2;2-3@0;4-5@1;6-6@2","num_stages":4)"
            R"(,"pattern_ops":14}})");
  EXPECT_EQ(served(request("scaled", 4, 2, 2, false)),
            R"({"id":"scaled","trace_id":"000000000000feed","status":"ok")"
            R"(,"cache":"hit","degraded":false,"latency_ms":0)"
            R"(,"plan":{"planner":"madpipe","period":0.05928)"
            R"(,"phase1_period":0.05928,"throughput":16.869095816464238)"
            R"(,"allocation":"1-1@2;2-3@0;4-5@1;6-6@2","num_stages":4)"
            R"(,"pattern_ops":14}})");
  EXPECT_EQ(served(request("explain", 1, 1, 2, true)),
            R"({"id":"explain","trace_id":"000000000000feed","status":"ok")"
            R"(,"cache":"hit","degraded":false,"latency_ms":0)"
            R"(,"explain":{"period":0.01482,"critical_resource":"gpu1")"
            R"(,"critical_utilization":1,"bubble_fraction":0)"
            R"(,"mean_gpu_utilization":0.8677462887989204)"
            R"(,"memory_peak_bytes":1158000000)"
            R"(,"memory_headroom_bytes":842000000,"binding_gpu":0)"
            R"(,"binding_term":"activations"},"plan":{"planner":"madpipe")"
            R"(,"period":0.01482,"phase1_period":0.01482)"
            R"(,"throughput":67.47638326585695)"
            R"(,"allocation":"1-1@2;2-3@0;4-5@1;6-6@2","num_stages":4)"
            R"(,"pattern_ops":14}})");
  EXPECT_EQ(served(request("scaled-explain", 4, 2, 2, true)),
            R"({"id":"scaled-explain","trace_id":"000000000000feed")"
            R"(,"status":"ok","cache":"hit","degraded":false,"latency_ms":0)"
            R"(,"explain":{"period":0.05928,"critical_resource":"gpu1")"
            R"(,"critical_utilization":1,"bubble_fraction":0)"
            R"(,"mean_gpu_utilization":0.8677462887989204)"
            R"(,"memory_peak_bytes":2316000000)"
            R"(,"memory_headroom_bytes":1684000000,"binding_gpu":0)"
            R"(,"binding_term":"activations"},"plan":{"planner":"madpipe")"
            R"(,"period":0.05928,"phase1_period":0.05928)"
            R"(,"throughput":16.869095816464238)"
            R"(,"allocation":"1-1@2;2-3@0;4-5@1;6-6@2","num_stages":4)"
            R"(,"pattern_ops":14}})");
  served(request("infeasible-miss", 1, 1, 0.05, false));
  EXPECT_EQ(served(request("infeasible", 1, 1, 0.05, false)),
            R"({"id":"infeasible","trace_id":"000000000000feed")"
            R"(,"status":"infeasible","cache":"hit","degraded":false)"
            R"(,"latency_ms":0})");
  EXPECT_EQ(service.stats().planner_runs, 2);
}

}  // namespace
}  // namespace madpipe::serve
