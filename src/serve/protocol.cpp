#include "serve/protocol.hpp"

#include <cmath>
#include <utility>

#include "core/types.hpp"
#include "obs/trace.hpp"
#include "models/profile_io.hpp"
#include "models/zoo.hpp"

namespace madpipe::serve {

namespace {

/// True when `v` holds an integer that fits an int comfortably.
bool as_int(const json::Value& v, int* out) {
  if (!v.is_number()) return false;
  const double d = v.as_number();
  if (!std::isfinite(d) || d != std::floor(d) || d < -1e9 || d > 1e9)
    return false;
  *out = static_cast<int>(d);
  return true;
}

bool known_field(const std::string& key, const char* const* allowed,
                 std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (key == allowed[i]) return true;
  }
  return false;
}

/// Per-request option knobs: a strict subset of MadPipeOptions (all fields
/// that are part of the cache key; the speculation widths are
/// result-invariant and stay server-side), plus the serve-level `timings`
/// and `explain` flags (request a phase-timing block / an ExplainSummary in
/// the response — never part of the cache key, they cannot change the plan).
std::string parse_options(const json::Value& value, MadPipeOptions* options,
                          bool* report_timings, bool* report_explain) {
  static const char* const kAllowed[] = {
      "iterations", "max_states", "relative_precision", "timings", "explain"};
  for (const auto& member : value.members()) {
    if (!known_field(member.first, kAllowed, std::size(kAllowed)))
      return "unknown options field '" + member.first + "'";
  }
  if (const json::Value* v = value.find("iterations")) {
    int iterations = 0;
    if (!as_int(*v, &iterations) || iterations < 1)
      return "options.iterations must be a positive integer";
    options->phase1.iterations = iterations;
  }
  if (const json::Value* v = value.find("max_states")) {
    // Converting a double at or past 2^64 to size_t is undefined, so the
    // range is checked before the cast.
    const double d = v->is_number() ? v->as_number() : 0.0;
    if (!(d >= 1.0 && d < 0x1p64 && d == std::floor(d)))
      return "options.max_states must be an integer in [1, 2^64)";
    options->phase1.dp.max_states = static_cast<std::size_t>(d);
  }
  if (const json::Value* v = value.find("relative_precision")) {
    if (!v->is_number() || !(v->as_number() > 0.0))
      return "options.relative_precision must be > 0";
    options->phase2.relative_precision = v->as_number();
  }
  if (const json::Value* v = value.find("timings")) {
    if (!v->is_bool()) return "options.timings must be a boolean";
    *report_timings = v->as_bool();
  }
  if (const json::Value* v = value.find("explain")) {
    if (!v->is_bool()) return "options.explain must be a boolean";
    *report_explain = v->as_bool();
  }
  return "";
}

std::string parse_network(const json::Value& value, std::optional<Chain>* out) {
  static const char* const kAllowed[] = {"name", "image", "batch", "length"};
  for (const auto& member : value.members()) {
    if (!known_field(member.first, kAllowed, std::size(kAllowed)))
      return "unknown network field '" + member.first + "'";
  }
  const json::Value* name = value.find("name");
  if (name == nullptr || !name->is_string())
    return "network.name (string) is required";
  models::NetworkConfig config;
  config.network = name->as_string();
  if (const json::Value* v = value.find("image")) {
    if (!as_int(*v, &config.image_size) || config.image_size < 1)
      return "network.image must be a positive integer";
  }
  if (const json::Value* v = value.find("batch")) {
    if (!as_int(*v, &config.batch) || config.batch < 1)
      return "network.batch must be a positive integer";
  }
  if (const json::Value* v = value.find("length")) {
    if (!as_int(*v, &config.chain_length) || config.chain_length < 0)
      return "network.length must be a non-negative integer";
  }
  try {
    *out = models::build_network(config);
  } catch (const std::exception& exception) {
    return std::string("network build failed: ") + exception.what();
  }
  return "";
}

}  // namespace

RequestParse request_from_json(const json::Value& value) {
  RequestParse parse;
  if (!value.is_object()) {
    parse.error = "request must be a JSON object";
    return parse;
  }
  if (const json::Value* id = value.find("id")) {
    if (!id->is_string()) {
      parse.error = "id must be a string";
      return parse;
    }
    parse.id = id->as_string();
  }

  static const char* const kAllowed[] = {
      "id",     "profile_text", "profile_file", "network",
      "gpus",   "memory_gb",    "bandwidth_gbs", "planner",
      "deadline_ms", "options"};
  for (const auto& member : value.members()) {
    if (!known_field(member.first, kAllowed, std::size(kAllowed))) {
      parse.error = "unknown request field '" + member.first + "'";
      return parse;
    }
  }

  // Exactly one profile source.
  const json::Value* profile_text = value.find("profile_text");
  const json::Value* profile_file = value.find("profile_file");
  const json::Value* network = value.find("network");
  const int sources = (profile_text != nullptr) + (profile_file != nullptr) +
                      (network != nullptr);
  if (sources != 1) {
    parse.error =
        "exactly one of profile_text, profile_file, network is required";
    return parse;
  }
  std::optional<Chain> chain;
  if (profile_text != nullptr) {
    if (!profile_text->is_string()) {
      parse.error = "profile_text must be a string";
      return parse;
    }
    models::ProfileParseResult profile =
        models::try_profile_from_string(profile_text->as_string());
    if (!profile.ok()) {
      parse.error = "profile_text: " + profile.error;
      return parse;
    }
    chain = std::move(profile.chain);
  } else if (profile_file != nullptr) {
    if (!profile_file->is_string()) {
      parse.error = "profile_file must be a string";
      return parse;
    }
    models::ProfileParseResult profile =
        models::try_load_profile(profile_file->as_string());
    if (!profile.ok()) {
      parse.error = "profile_file: " + profile.error;
      return parse;
    }
    chain = std::move(profile.chain);
  } else {
    if (!network->is_object()) {
      parse.error = "network must be an object";
      return parse;
    }
    parse.error = parse_network(*network, &chain);
    if (!parse.error.empty()) return parse;
  }

  int gpus = 0;
  const json::Value* gpus_field = value.find("gpus");
  if (gpus_field == nullptr || !as_int(*gpus_field, &gpus) || gpus < 1) {
    parse.error = "gpus (positive integer) is required";
    return parse;
  }
  const json::Value* memory = value.find("memory_gb");
  if (memory == nullptr || !memory->is_number() ||
      !(memory->as_number() > 0.0)) {
    parse.error = "memory_gb (positive number) is required";
    return parse;
  }
  double bandwidth_gbs = 12.0;
  if (const json::Value* v = value.find("bandwidth_gbs")) {
    if (!v->is_number() || !(v->as_number() > 0.0)) {
      parse.error = "bandwidth_gbs must be > 0";
      return parse;
    }
    bandwidth_gbs = v->as_number();
  }

  // "madpipe-contig" is MadPipe without the special processor.
  MadPipeOptions options;
  if (const json::Value* v = value.find("planner")) {
    if (!v->is_string()) {
      parse.error = "planner must be a string";
      return parse;
    }
    const std::string& name = v->as_string();
    if (name != "madpipe" && name != "madpipe-contig") {
      parse.error =
          "unknown planner '" + name + "' (expected madpipe or madpipe-contig)";
      return parse;
    }
    options.phase1.dp.allow_special = name == "madpipe";
  }

  Seconds deadline_seconds = 0.0;
  if (const json::Value* v = value.find("deadline_ms")) {
    if (!v->is_number() || v->as_number() < 0.0) {
      parse.error = "deadline_ms must be a non-negative number";
      return parse;
    }
    deadline_seconds = v->as_number() * 1e-3;
  }

  bool report_timings = false;
  bool report_explain = false;
  if (const json::Value* v = value.find("options")) {
    if (!v->is_object()) {
      parse.error = "options must be an object";
      return parse;
    }
    parse.error = parse_options(*v, &options, &report_timings, &report_explain);
    if (!parse.error.empty()) return parse;
  }

  PlanRequest request{parse.id,
                      std::move(*chain),
                      Platform{gpus, memory->as_number() * GB,
                               bandwidth_gbs * GB},
                      options,
                      deadline_seconds,
                      report_timings,
                      report_explain};
  try {
    request.platform.validate();
  } catch (const std::exception& exception) {
    parse.error = std::string("invalid platform: ") + exception.what();
    return parse;
  }
  parse.request = std::move(request);
  return parse;
}

BatchParse parse_requests(const std::string& text) {
  BatchParse batch;
  const json::ParseResult parsed = json::parse(text);
  if (!parsed.ok()) {
    batch.error = parsed.error;
    return batch;
  }
  const json::Value& root = parsed.value;
  const std::vector<json::Value>* list = nullptr;
  if (root.is_array()) {
    list = &root.items();
  } else if (root.is_object()) {
    if (const json::Value* requests = root.find("requests")) {
      if (!requests->is_array()) {
        batch.error = "'requests' must be an array";
        return batch;
      }
      list = &requests->items();
    } else {
      // A single bare request object.
      batch.requests.push_back(request_from_json(root));
      return batch;
    }
  } else {
    batch.error = "request document must be an object or array";
    return batch;
  }
  batch.requests.reserve(list->size());
  for (const json::Value& item : *list) {
    batch.requests.push_back(request_from_json(item));
  }
  return batch;
}

void write_response(json::Writer& writer, const PlanResponse& response,
                    bool include_stats) {
  writer.begin_object();
  writer.key("id");
  writer.value(response.id);
  if (response.trace_id != 0) {
    // Echo of the ingress-assigned trace id. Cache-key-inert, and placed
    // before "plan" so bit-identity checks on the plan tail still hold
    // across hit/miss (the ids differ, the plans must not).
    writer.key("trace_id");
    writer.value(obs::format_trace_id(response.trace_id));
  }
  writer.key("status");
  writer.value(to_string(response.status));
  writer.key("cache");
  writer.value(to_string(response.cache));
  writer.key("degraded");
  writer.value(response.degraded);
  writer.key("latency_ms");
  writer.value(response.latency_seconds * 1e3);
  if (response.phases.has_value()) {
    writer.key("phases");
    writer.begin_object();
    writer.key("cache_ms");
    writer.value(response.phases->cache_seconds * 1e3);
    writer.key("queue_ms");
    writer.value(response.phases->queue_seconds * 1e3);
    writer.key("plan_ms");
    writer.value(response.phases->plan_seconds * 1e3);
    writer.key("phase1_ms");
    writer.value(response.phases->phase1_seconds * 1e3);
    writer.key("phase2_ms");
    writer.value(response.phases->phase2_seconds * 1e3);
    writer.end_object();
  }
  if (response.explain.has_value()) {
    const report::ExplainSummary& s = *response.explain;
    writer.key("explain");
    writer.begin_object();
    writer.key("period");
    writer.value(s.period);
    writer.key("critical_resource");
    writer.value(s.critical_resource);
    writer.key("critical_utilization");
    writer.value(s.critical_utilization);
    writer.key("bubble_fraction");
    writer.value(s.bubble_fraction);
    writer.key("mean_gpu_utilization");
    writer.value(s.mean_gpu_utilization);
    writer.key("memory_peak_bytes");
    writer.value(s.memory_peak_bytes);
    writer.key("memory_headroom_bytes");
    writer.value(s.memory_headroom_bytes);
    writer.key("binding_gpu");
    writer.value(s.binding_gpu);
    writer.key("binding_term");
    writer.value(report::to_string(s.binding_term));
    writer.end_object();
  }
  if (!response.error.empty()) {
    writer.key("error");
    writer.value(response.error);
  }
  if (response.plan.has_value()) {
    // Straight from the shared cache entry: the plan is in canonical units
    // and the times are scaled here, exactly as denormalize_plan scales
    // them, so no denormalized Plan is built for a response.
    const CacheEntry& entry = response.plan.entry();
    const Plan& plan = *entry.plan;
    const double time_unit = response.plan.time_unit();
    const Seconds period = plan.period() * time_unit;
    writer.key("plan");
    writer.begin_object();
    writer.key("planner");
    writer.value(plan.planner);
    writer.key("period");
    writer.value(period);
    writer.key("phase1_period");
    writer.value(plan.phase1_period * time_unit);
    writer.key("throughput");
    writer.value(1.0 / period);
    writer.key("allocation");
    writer.value(entry.allocation);
    writer.key("num_stages");
    writer.value(plan.allocation.partitioning().num_stages());
    writer.key("pattern_ops");
    writer.value(plan.pattern.ops.size());
    if (include_stats) {
      writer.key("stats");
      plan.stats.write_json(writer);
    }
    writer.end_object();
  }
  writer.end_object();
}

std::string response_to_json(const PlanResponse& response,
                             bool include_stats) {
  json::Writer writer;
  write_response(writer, response, include_stats);
  return std::move(writer).str();
}

std::string batch_to_json(const std::vector<PlanResponse>& responses,
                          const ServeStats& stats, bool include_stats) {
  json::Writer writer;
  writer.begin_object();
  writer.key("schema");
  writer.value(kServeSchema);
  writer.key("responses");
  writer.begin_array();
  for (const PlanResponse& response : responses) {
    write_response(writer, response, include_stats);
  }
  writer.end_array();
  writer.key("stats");
  stats.write_json(writer);
  writer.end_object();
  return std::move(writer).str();
}

PlanResponse error_response(const std::string& id, const std::string& error) {
  PlanResponse response;
  response.id = id;
  response.status = ResponseStatus::Error;
  response.cache = CacheOutcome::None;
  response.error = error;
  return response;
}

}  // namespace madpipe::serve
