// Plan requests and their canonical cache keys.
//
// A PlanRequest bundles everything `plan_madpipe` needs — profile, platform
// {P, M, β} and options — plus serve-level fields (id, deadline).
// Canonicalization turns a request into a cache key by normalizing the
// profile into canonical units:
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
//
// The key and the normalized profile are computed apart: cache_key() writes
// the fingerprint straight from the raw chain, and canonicalize() builds the
// canonical Chain the planner runs on, which only a cache miss needs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/chain.hpp"
#include "core/plan.hpp"
#include "core/platform.hpp"
#include "madpipe/planner.hpp"

namespace madpipe::serve {

/// The first bytes of every fingerprint cache_key() writes. It names the
/// fingerprint's layout and the planner behind it, so it changes whenever
/// the same request would get a different plan; the snapshot loader skips
/// entries stored under any other prefix, which could never hit.
inline constexpr std::string_view kCacheKeyPrefix = "madpipe-serve-key-v2|";

/// One planning request as submitted to the service.
struct PlanRequest {
  std::string id;  ///< caller-chosen correlation id (protocol-level only)
  Chain chain;
  Platform platform;
  /// Planner options; the protocol's "madpipe-contig" planner is
  /// `options.phase1.dp.allow_special = false`. The speculation widths are
  /// not read: PlanService plans every miss at one lane.
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
  /// Request trace id, assigned at ingress (PlanService::submit_async
  /// assigns one if still 0; the TCP server passes one per frame to
  /// submit_prepared instead). Echoed in the response and stamped onto
  /// every span the request produces. Like `id`, cache-key-inert: tracing
  /// never changes the plan.
  std::uint64_t trace_id = 0;
  /// Ingress timestamp (obs::now_ns), 0 = unknown. Start of the sampled
  /// request's admission phase; never part of the cache key.
  std::int64_t ingress_ns = 0;
};

/// The cache identity of a request: the power-of-two units that map it onto
/// canonical units, the canonical fingerprint and its 64-bit digest.
/// Computed by cache_key() straight from the request's own chain, so a cache
/// hit never builds a canonical Chain.
struct CacheKey {
  double time_unit = 1.0;  ///< multiply canonical times by this to denormalize
  double byte_unit = 1.0;
  bool normalized = false;  ///< false → exact-key fallback (units are 1.0)
  std::string fingerprint;  ///< full canonical serialization (collision-proof)
  std::uint64_t key = 0;    ///< 64-bit digest of the fingerprint
};

/// A canonicalized request: its cache key plus the normalized
/// profile/platform the planner actually runs on.
struct CanonicalRequest : CacheKey {
  Chain chain;        ///< normalized profile (canonical units, names dropped)
  Platform platform;  ///< normalized platform
};

/// A request with its cache key computed once: what PlanService serves. The
/// TCP front-end keeps one per distinct frame and shares it, const, across
/// every verbatim repeat, so a repeat pays neither a parse nor a key.
/// `request.trace_id`/`ingress_ns` are not read: each submission of a
/// prepared request carries its own.
struct PreparedRequest {
  PlanRequest request;
  CacheKey key;
};

/// The cache key of `request`. Never fails: inputs that defeat exact
/// normalization get the exact-key fallback.
CacheKey cache_key(const PlanRequest& request);

/// The canonical form of `request` under `key`, which must be
/// cache_key(request): the chain and platform divided by the key's units.
/// Only a request that misses the cache needs this.
CanonicalRequest canonicalize(const PlanRequest& request, CacheKey key);

/// canonicalize(request, cache_key(request)).
CanonicalRequest canonicalize(const PlanRequest& request);

/// Bundle `request` with its cache key.
PreparedRequest prepare(PlanRequest request);

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
