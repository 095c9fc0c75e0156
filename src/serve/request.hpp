// Plan requests and their canonical cache keys.
//
// A PlanRequest bundles everything `plan_madpipe` needs — profile, platform
// {P, M, β} and options — plus serve-level fields (id, deadline). Canonicalization turns a request into a cache key by
// normalizing the profile into canonical units:
//
//  * the time unit is 2^floor(log2(U(1,L))) and every duration is divided
//    by it, so the total compute lands in [1, 2);
//  * the byte unit is 2^floor(log2(M)) and every byte quantity (weights,
//    activations, input, scratch, M itself) is divided by it; the bandwidth
//    becomes β · time_unit / byte_unit so transfer *times* keep scaling
//    like durations.
//
// Powers of two are the whole trick: dividing a double by a power of two
// only shifts its exponent, so the normalization is exact, and because every
// tolerance in the planner is *relative* (see search.cpp, bb_scheduler.cpp)
// and the DP grids span [0, U(1,L)] / [0, M], running the planner on the
// normalized request and multiplying the resulting times back is
// bit-identical to planning the raw request directly. Two requests that
// differ by an exact power-of-two rescale of all durations and/or all byte
// quantities therefore share one cache entry — and a cached plan can be
// served to either, rescaled, without rerunning the DP. Layer and network
// names are dropped from the key (they never influence planning).
//
// Anything not provably exact — a zero/non-finite total, a value whose
// scaled form underflows, a rescale that fails the round-trip check — falls
// back to an exact key over the raw bits (`normalized == false`), which is
// always correct, just less shareable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/chain.hpp"
#include "core/plan.hpp"
#include "core/platform.hpp"
#include "madpipe/planner.hpp"

namespace madpipe::serve {

/// One planning request as submitted to the service.
struct PlanRequest {
  std::string id;  ///< caller-chosen correlation id (protocol-level only)
  Chain chain;
  Platform platform;
  /// Planner options; the protocol's "madpipe-contig" planner is
  /// `options.phase1.dp.allow_special = false`.
  MadPipeOptions options;
  /// Wall-clock budget for this request; 0 = none. Overrunning requests are
  /// not killed — their DP state budget is shrunk so they degrade to a
  /// best-effort plan instead of stalling the queue (see service.hpp).
  Seconds deadline_seconds = 0.0;
  /// Ask the service to attach a per-request phase-timing breakdown
  /// (cache / queue / plan seconds) to the response. Protocol option
  /// `options.timings`. Deliberately excluded from the cache key: timing
  /// reporting never changes the plan.
  bool report_timings = false;
  /// Attach an ExplainSummary (bottleneck + memory watermark, see
  /// report/plan_report.hpp) to the response. Protocol option
  /// `options.explain`. Like `timings`, excluded from the cache key:
  /// explaining a plan never changes it.
  bool report_explain = false;
  /// Request trace id, assigned at ingress (the TCP server stamps it per
  /// frame; PlanService assigns one if still 0). Echoed in the response
  /// and stamped onto every span the request produces. Like `id`,
  /// cache-key-inert: tracing never changes the plan.
  std::uint64_t trace_id = 0;
  /// Ingress timestamp (obs::now_ns), 0 = unknown. Start of the sampled
  /// request's admission phase; never part of the cache key.
  std::int64_t ingress_ns = 0;
};

/// A canonicalized request: the normalized profile/platform the planner
/// actually runs on, the units to undo the normalization, and the cache key.
struct CanonicalRequest {
  Chain chain;        ///< normalized profile (canonical units, names dropped)
  Platform platform;  ///< normalized platform
  double time_unit = 1.0;  ///< multiply canonical times by this to denormalize
  double byte_unit = 1.0;
  bool normalized = false;  ///< false → exact-key fallback (units are 1.0)
  std::string fingerprint;  ///< full canonical serialization (collision-proof)
  std::uint64_t key = 0;    ///< 64-bit digest of the fingerprint
};

/// Build the canonical form of `request`. Never fails: inputs that defeat
/// exact normalization get the exact-key fallback.
CanonicalRequest canonicalize(const PlanRequest& request);

/// The 64-bit cache key of a canonical fingerprint (FNV-1a + mix; the
/// all-ones sentinel remapped). Exposed so the cache-snapshot loader can
/// verify that a stored (key, fingerprint) pair is internally consistent.
std::uint64_t fingerprint_digest(const std::string& fingerprint);

/// Rescale a plan computed on the canonical profile back into request units
/// (exact: the units are powers of two). Times scale by time_unit; the
/// allocation, shifts and counters are unit-free.
Plan denormalize_plan(Plan plan, double time_unit);

/// Compact allocation fingerprint "first-last@proc;..." in stage order —
/// shared by the serve protocol and the golden tests.
std::string allocation_fingerprint(const Allocation& allocation);

/// True when the two plans are the same result bit for bit: planner,
/// allocation, period, phase-1 period and every pattern op (provenance
/// fields — wall times, counters — are excluded; they differ run to run).
bool plans_bit_identical(const Plan& a, const Plan& b) noexcept;

}  // namespace madpipe::serve
