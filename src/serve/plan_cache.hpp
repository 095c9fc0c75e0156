// Sharded LRU cache for planning results, keyed by canonical request keys.
//
// N shards (a power of two, picked by high key bits so the flat table's
// probe bits stay independent), each one mutex + an intrusive LRU threaded
// through a slab of entries, indexed by a FlatHash64 from 64-bit key to slab
// slot. Budgeted by approximate bytes rather than entry count — plans vary
// in size by orders of magnitude (a contiguous 1F1B pattern vs a cyclic one
// with hundreds of ops). An optional TTL lets long-running services shed
// entries whose profiles have gone stale.
//
// Keys are 64-bit digests; the full canonical fingerprint is stored in each
// entry and compared on every hit, so a digest collision degrades to a miss
// (counted) instead of serving the wrong plan.
//
// Entries are immutable once inserted and shared: find() hands out a
// reference-counted pointer to the resident entry, never a copy, so a hit
// costs a refcount increment whatever the size of the plan, and an entry
// evicted while a response still reads it stays alive until that response
// is gone.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "report/plan_report.hpp"
#include "serve/request.hpp"
#include "util/flat_hash.hpp"

namespace madpipe::serve {

/// A cached planning outcome in canonical units. Infeasible outcomes are
/// cached too (negative caching): re-planning an impossible configuration
/// is exactly as expensive as planning a possible one.
struct CachedPlan {
  std::optional<Plan> plan;  ///< nullopt = planner returned infeasible
  /// Units of the request that created the entry. A later hit whose own
  /// units differ is a *scaled* hit: the entry is being shared across a
  /// power-of-two rescale of the profile.
  double creator_time_unit = 1.0;
  double creator_byte_unit = 1.0;

  bool feasible() const noexcept { return plan.has_value(); }
};

/// One cache entry: a CachedPlan plus what the responses served from it
/// read, derived once. Held as `shared_ptr<const CacheEntry>` by the cache
/// and by every response still being written from it.
struct CacheEntry : CachedPlan {
  /// Derives `allocation` from `cached.plan`: the one place an entry is
  /// built, for a planner run and for a snapshot load alike.
  explicit CacheEntry(CachedPlan cached);

  /// allocation_fingerprint(plan->allocation); empty when infeasible.
  std::string allocation;

  /// The plan's ExplainSummary in canonical units (feasible entries only).
  /// Built on the first call, from `request` canonicalized under `key` (the
  /// key this entry is cached under), and kept: every later call, from any
  /// thread, returns the same summary and ignores its arguments.
  const report::ExplainSummary& explain_summary(const PlanRequest& request,
                                                const CacheKey& key) const;

 private:
  mutable std::once_flag summary_once_;
  mutable report::ExplainSummary summary_;
};

struct PlanCacheOptions {
  std::size_t shards = 8;  ///< rounded up to a power of two, at least 1
  /// Total byte budget across shards (approximate accounting: fingerprints,
  /// pattern ops, allocation vectors). 0 = unbounded.
  std::size_t byte_budget = 64u << 20;
  double ttl_seconds = 0.0;  ///< 0 = entries never expire
};

struct PlanCacheCounters {
  long long hits = 0;
  long long misses = 0;
  long long insertions = 0;
  long long evictions = 0;     ///< byte-budget LRU evictions
  long long expirations = 0;   ///< TTL evictions
  long long key_collisions = 0;
  long long entries = 0;
  long long bytes = 0;
};

class ShardedPlanCache {
 public:
  explicit ShardedPlanCache(const PlanCacheOptions& options = {});
  ~ShardedPlanCache();  ///< out of line: Shard is an incomplete type here

  /// Look up the canonical key; a hit refreshes LRU recency and returns the
  /// resident entry itself (nullptr on a miss). The fingerprint is
  /// verified, TTL-expired entries are dropped on sight.
  std::shared_ptr<const CacheEntry> find(const CacheKey& request);

  /// Build the entry for `cached` and insert it (overwriting any entry under
  /// the same key), then evict LRU tails until the shard is back under its
  /// byte budget. The newest entry always survives, even when it alone
  /// exceeds the budget. Returns the inserted entry.
  std::shared_ptr<const CacheEntry> insert(const CacheKey& request,
                                           CachedPlan cached);

  /// Insert under an explicit key/fingerprint pair — the snapshot-restore
  /// path, where entries arrive from disk instead of from a request's
  /// cache key. Identical semantics to insert() otherwise.
  std::shared_ptr<const CacheEntry> insert_raw(std::uint64_t key,
                                               const std::string& fingerprint,
                                               CachedPlan cached);

  /// One resident entry at a point in time, for snapshotting.
  struct ExportedEntry {
    std::uint64_t key = 0;
    std::string fingerprint;
    std::shared_ptr<const CacheEntry> cached;
  };

  /// List every resident (non-expired) entry, shard by shard under each
  /// shard's lock — concurrent finds/inserts on other shards proceed. Within
  /// a shard, entries come out most-recently-used first, so a budget-capped
  /// reload keeps the hottest plans.
  std::vector<ExportedEntry> export_entries() const;

  PlanCacheCounters counters() const;
  void clear();

 private:
  struct Entry;
  struct Shard;

  Shard& shard_for(std::uint64_t key) const;

  PlanCacheOptions options_;
  std::size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace madpipe::serve
