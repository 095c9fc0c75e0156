// ShardedPlanCache unit tests: LRU ordering, byte-budget eviction, TTL
// expiry, digest-collision safety and concurrent access.
#include "serve/plan_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace madpipe::serve {
namespace {

/// A synthetic cache key with a chosen key/fingerprint (the cache never
/// looks at anything else).
CacheKey synthetic(std::uint64_t key, const std::string& fingerprint) {
  return CacheKey{1.0, 1.0, true, fingerprint, key};
}

CachedPlan feasible_plan(double period = 0.5) {
  const Chain chain = make_uniform_chain(2, ms(1), ms(2), MB, MB, MB);
  Allocation allocation(Partitioning(chain, {Stage{1, 2}}), {0}, 2);
  PeriodicPattern pattern;
  pattern.period = period;
  CachedPlan cached;
  cached.plan = Plan{"test", std::move(allocation), std::move(pattern),
                     period, 0.0, PlannerStats{}};
  return cached;
}

TEST(ServeCache, InsertFindRoundTrip) {
  ShardedPlanCache cache;
  const CacheKey request = synthetic(42, "fp42");
  EXPECT_FALSE(cache.find(request).has_value());
  cache.insert(request, feasible_plan(0.25));
  const std::optional<CachedPlan> hit = cache.find(request);
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->feasible());
  EXPECT_EQ(hit->plan->pattern.period, 0.25);
  const PlanCacheCounters counters = cache.counters();
  EXPECT_EQ(counters.hits, 1);
  EXPECT_EQ(counters.misses, 1);
  EXPECT_EQ(counters.entries, 1);
  EXPECT_GT(counters.bytes, 0);
}

TEST(ServeCache, NegativeCachingStoresInfeasible) {
  ShardedPlanCache cache;
  const CacheKey request = synthetic(7, "fp7");
  cache.insert(request, CachedPlan{});
  const std::optional<CachedPlan> hit = cache.find(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->feasible());
}

TEST(ServeCache, OverwriteSameKeyKeepsOneEntry) {
  ShardedPlanCache cache;
  const CacheKey request = synthetic(9, "fp9");
  cache.insert(request, feasible_plan(1.0));
  cache.insert(request, feasible_plan(2.0));
  EXPECT_EQ(cache.counters().entries, 1);
  const std::optional<CachedPlan> hit = cache.find(request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->plan->pattern.period, 2.0);
}

TEST(ServeCache, DigestCollisionIsAMissNotAWrongPlan) {
  ShardedPlanCache cache;
  // Same 64-bit key, different fingerprints: a digest collision.
  const CacheKey a = synthetic(1234, "fingerprint-a");
  const CacheKey b = synthetic(1234, "fingerprint-b");
  cache.insert(a, feasible_plan(1.0));
  EXPECT_FALSE(cache.find(b).has_value());
  EXPECT_EQ(cache.counters().key_collisions, 1);
  // The colliding entry is still intact for its real owner.
  EXPECT_TRUE(cache.find(a).has_value());
}

TEST(ServeCache, ByteBudgetEvictsLeastRecentlyUsed) {
  PlanCacheOptions options;
  options.shards = 1;  // single shard so the LRU order is global
  options.byte_budget = 1;  // every insert overflows: only the newest stays
  ShardedPlanCache cache(options);
  const CacheKey a = synthetic(1, "a");
  const CacheKey b = synthetic(2, "b");
  cache.insert(a, feasible_plan());
  cache.insert(b, feasible_plan());
  EXPECT_FALSE(cache.find(a).has_value());  // evicted as LRU tail
  EXPECT_TRUE(cache.find(b).has_value());   // newest always survives
  EXPECT_GE(cache.counters().evictions, 1);
  EXPECT_EQ(cache.counters().entries, 1);
}

TEST(ServeCache, LruRefreshOnHitProtectsHotEntries) {
  // Measure one entry's byte charge (fingerprints below all have the same
  // length, so every entry costs the same) to size a budget of exactly two.
  PlanCacheOptions probe_options;
  probe_options.shards = 1;
  ShardedPlanCache probe(probe_options);
  probe.insert(synthetic(1, "a"), feasible_plan());
  const long long entry_bytes = probe.counters().bytes;
  ASSERT_GT(entry_bytes, 0);

  PlanCacheOptions tight;
  tight.shards = 1;
  tight.byte_budget = 2 * entry_bytes + entry_bytes / 2;  // two fit, not three
  ShardedPlanCache small(tight);
  const CacheKey a = synthetic(1, "a");
  const CacheKey b = synthetic(2, "b");
  small.insert(a, feasible_plan());
  small.insert(b, feasible_plan());
  EXPECT_TRUE(small.find(a).has_value());  // refresh a; b is now the tail
  small.insert(synthetic(3, "c"), feasible_plan());
  EXPECT_TRUE(small.find(a).has_value());
  EXPECT_FALSE(small.find(b).has_value());
}

TEST(ServeCache, TtlExpiresEntries) {
  PlanCacheOptions options;
  options.ttl_seconds = 1e-9;  // expires effectively immediately
  ShardedPlanCache cache(options);
  const CacheKey request = synthetic(5, "fp5");
  cache.insert(request, feasible_plan());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(cache.find(request).has_value());
  EXPECT_EQ(cache.counters().expirations, 1);
  EXPECT_EQ(cache.counters().entries, 0);
}

TEST(ServeCache, ClearEmptiesEveryShard) {
  ShardedPlanCache cache;
  for (std::uint64_t k = 0; k < 64; ++k) {
    cache.insert(synthetic(k * 0x0101010101010101ull, std::to_string(k)),
                 feasible_plan());
  }
  EXPECT_EQ(cache.counters().entries, 64);
  cache.clear();
  EXPECT_EQ(cache.counters().entries, 0);
  EXPECT_EQ(cache.counters().bytes, 0);
}

TEST(ServeCache, ConcurrentMixedOperationsStayConsistent) {
  PlanCacheOptions options;
  options.shards = 4;
  options.byte_budget = 64 * 1024;  // force ongoing eviction under load
  ShardedPlanCache cache(options);
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::atomic<long long> observed_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t key =
            static_cast<std::uint64_t>((t * kOps + i) % 97) *
            0x9e3779b97f4a7c15ull;
        const CacheKey request =
            synthetic(key, "fp" + std::to_string(key));
        if (i % 3 == 0) {
          cache.insert(request, feasible_plan());
        } else if (cache.find(request).has_value()) {
          observed_hits.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const PlanCacheCounters counters = cache.counters();
  EXPECT_EQ(counters.hits, observed_hits.load());
  EXPECT_LE(counters.bytes, static_cast<long long>(64 * 1024 + 4096));
  EXPECT_GE(counters.entries, 0);
}

}  // namespace
}  // namespace madpipe::serve
