// JSON wire protocol for `madpipe serve`.
//
// Requests name a profile source (inline text, a file, or a zoo network),
// the platform {gpus, memory_gb, bandwidth_gbs}, a planner name and optional
// tuning knobs; responses echo the request id and report the plan, the cache
// outcome and the latency. The protocol is strict like the rest of the
// repo: unknown fields, wrong types and missing requirements are errors —
// per request where possible, so one bad request in a batch doesn't poison
// its neighbours.
//
//   request  = {"id": "r1", "network": {"name": "resnet50"}, "gpus": 4,
//               "memory_gb": 8, "bandwidth_gbs": 12,
//               "planner": "madpipe", "deadline_ms": 250,
//               "options": {"iterations": 10, "timings": true}}
//   batch    = {"requests": [request, ...]}   (or a bare array, or one object)
//   response = {"id": "r1", "status": "ok", "cache": "miss",
//               "degraded": false, "latency_ms": 312.4,
//               "phases": {"cache_ms": ..., "queue_ms": ..., "plan_ms": ...,
//                          "phase1_ms": ..., "phase2_ms": ...},
//               "plan": {...}}
//   batch response = {"schema": "madpipe-serve-v1", "responses": [...],
//                     "stats": {...}}
//
// `options.timings` opts a request into the per-phase latency breakdown
// ("phases" in its response; phase1_ms and phase2_ms are the planner's two
// phases inside plan_ms, and a hit reports 0 for everything but cache_ms);
// it is serve-level only and never part of the plan-cache key.
#pragma once

#include <string>
#include <vector>

#include "serve/request.hpp"
#include "serve/serve_stats.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"

namespace madpipe::serve {

inline constexpr const char* kServeSchema = "madpipe-serve-v1";

/// One request slot out of a batch: either a usable PlanRequest or a
/// request-level error (with the id echoed when it could be read).
struct RequestParse {
  std::optional<PlanRequest> request;
  std::string id;
  std::string error;  ///< empty on success

  bool ok() const noexcept { return error.empty(); }
};

/// Parse one request object (already-parsed JSON).
RequestParse request_from_json(const json::Value& value);

struct BatchParse {
  std::vector<RequestParse> requests;
  std::string error;  ///< document-level failure (malformed JSON, bad shape)

  bool ok() const noexcept { return error.empty(); }
};

/// Parse a request document: {"requests": [...]}, a bare array of request
/// objects, or a single request object.
BatchParse parse_requests(const std::string& text);

/// Serialize one response as an object value (the caller owns the scope
/// around it). `include_stats` adds the planner counters to the plan block.
void write_response(json::Writer& writer, const PlanResponse& response,
                    bool include_stats = false);

std::string response_to_json(const PlanResponse& response,
                             bool include_stats = false);

/// The full batch document: schema tag, responses in request order, service
/// stats snapshot.
std::string batch_to_json(const std::vector<PlanResponse>& responses,
                          const ServeStats& stats,
                          bool include_stats = false);

/// A response for a request that never reached the service (parse error).
PlanResponse error_response(const std::string& id, const std::string& error);

}  // namespace madpipe::serve
