#include "serve/plan_cache.hpp"

#include <chrono>

namespace madpipe::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kNone = ~0u;

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p *= 2;
  return p;
}

/// Approximate resident size of one entry: the accounting driving the byte
/// budget. Exactness doesn't matter; proportionality does.
std::size_t approximate_bytes(const std::string& fingerprint,
                              const CachedPlan& cached) {
  std::size_t bytes = 128 + fingerprint.size();
  if (cached.plan.has_value()) {
    const Plan& plan = *cached.plan;
    bytes += plan.pattern.ops.size() * sizeof(PatternOp);
    bytes += plan.allocation.partitioning().stages().size() *
             (sizeof(Stage) + sizeof(int));
    bytes += sizeof(Plan);
  }
  return bytes;
}

}  // namespace

struct ShardedPlanCache::Entry {
  std::uint64_t key = 0;
  std::string fingerprint;
  CachedPlan cached;
  std::size_t bytes = 0;
  Clock::time_point expires{};  ///< meaningful only with a TTL
  // Intrusive LRU links (slab indices). head = most recent.
  std::uint32_t prev = kNone;
  std::uint32_t next = kNone;
};

struct ShardedPlanCache::Shard {
  mutable std::mutex mutex;
  util::FlatHash64<std::uint32_t> index;  ///< key → slab slot
  std::vector<Entry> slab;
  std::vector<std::uint32_t> free_slots;
  std::uint32_t lru_head = kNone;
  std::uint32_t lru_tail = kNone;
  std::size_t bytes = 0;
  std::size_t byte_budget = 0;  ///< 0 = unbounded
  PlanCacheCounters counters;

  void unlink(std::uint32_t slot) {
    Entry& entry = slab[slot];
    if (entry.prev != kNone) slab[entry.prev].next = entry.next;
    else lru_head = entry.next;
    if (entry.next != kNone) slab[entry.next].prev = entry.prev;
    else lru_tail = entry.prev;
    entry.prev = entry.next = kNone;
  }

  void push_front(std::uint32_t slot) {
    Entry& entry = slab[slot];
    entry.prev = kNone;
    entry.next = lru_head;
    if (lru_head != kNone) slab[lru_head].prev = slot;
    lru_head = slot;
    if (lru_tail == kNone) lru_tail = slot;
  }

  void remove(std::uint32_t slot) {
    unlink(slot);
    Entry& entry = slab[slot];
    index.erase(entry.key);
    bytes -= entry.bytes;
    entry = Entry{};
    free_slots.push_back(slot);
  }

  /// Evict LRU tails until under budget; `keep` (the entry just inserted)
  /// is never evicted.
  void enforce_budget(std::uint32_t keep) {
    if (byte_budget == 0) return;
    while (bytes > byte_budget && lru_tail != kNone && lru_tail != keep) {
      remove(lru_tail);
      ++counters.evictions;
    }
  }
};

ShardedPlanCache::ShardedPlanCache(const PlanCacheOptions& options)
    : options_(options) {
  const std::size_t shard_count =
      round_up_pow2(options.shards == 0 ? 1 : options.shards);
  shard_mask_ = shard_count - 1;
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->byte_budget =
        options.byte_budget == 0
            ? 0
            // Round up so the shard budgets never sum below the requested
            // total when it isn't divisible.
            : (options.byte_budget + shard_count - 1) / shard_count;
  }
}

ShardedPlanCache::~ShardedPlanCache() = default;

ShardedPlanCache::Shard& ShardedPlanCache::shard_for(std::uint64_t key) const {
  // The flat table consumes mix64(key) from the low bits; picking the shard
  // from the top byte keeps the two partitions independent.
  return *shards_[(key >> 56) & shard_mask_];
}

std::optional<CachedPlan> ShardedPlanCache::find(const CacheKey& request) {
  Shard& shard = shard_for(request.key);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const std::uint32_t* slot = shard.index.find(request.key);
  if (slot == nullptr) {
    ++shard.counters.misses;
    return std::nullopt;
  }
  Entry& entry = shard.slab[*slot];
  if (entry.fingerprint != request.fingerprint) {
    ++shard.counters.key_collisions;
    ++shard.counters.misses;
    return std::nullopt;
  }
  if (options_.ttl_seconds > 0.0 && Clock::now() >= entry.expires) {
    shard.remove(*slot);
    ++shard.counters.expirations;
    ++shard.counters.misses;
    return std::nullopt;
  }
  const std::uint32_t index = *slot;
  shard.unlink(index);
  shard.push_front(index);
  ++shard.counters.hits;
  return shard.slab[index].cached;
}

void ShardedPlanCache::insert(const CacheKey& request,
                              const CachedPlan& cached) {
  insert_raw(request.key, request.fingerprint, cached);
}

void ShardedPlanCache::insert_raw(std::uint64_t key,
                                  const std::string& fingerprint,
                                  const CachedPlan& cached) {
  Shard& shard = shard_for(key);
  const std::lock_guard<std::mutex> lock(shard.mutex);

  std::uint32_t slot;
  if (const std::uint32_t* existing = shard.index.find(key)) {
    // Overwrite in place (same key: either a refresh or a digest collision —
    // latest writer wins either way).
    slot = *existing;
    shard.unlink(slot);
    shard.bytes -= shard.slab[slot].bytes;
  } else {
    if (!shard.free_slots.empty()) {
      slot = shard.free_slots.back();
      shard.free_slots.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(shard.slab.size());
      shard.slab.emplace_back();
    }
    shard.index.emplace(key, slot);
  }

  Entry& entry = shard.slab[slot];
  entry.key = key;
  entry.fingerprint = fingerprint;
  entry.cached = cached;
  entry.bytes = approximate_bytes(entry.fingerprint, cached);
  if (options_.ttl_seconds > 0.0) {
    entry.expires = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           options_.ttl_seconds));
  }
  shard.bytes += entry.bytes;
  shard.push_front(slot);
  ++shard.counters.insertions;
  shard.enforce_budget(slot);
}

std::vector<ShardedPlanCache::ExportedEntry> ShardedPlanCache::export_entries()
    const {
  std::vector<ExportedEntry> exported;
  const Clock::time_point now = Clock::now();
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    for (std::uint32_t slot = shard->lru_head; slot != kNone;
         slot = shard->slab[slot].next) {
      const Entry& entry = shard->slab[slot];
      if (options_.ttl_seconds > 0.0 && now >= entry.expires) continue;
      exported.push_back(ExportedEntry{entry.key, entry.fingerprint,
                                       entry.cached});
    }
  }
  return exported;
}

PlanCacheCounters ShardedPlanCache::counters() const {
  PlanCacheCounters total;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->counters.hits;
    total.misses += shard->counters.misses;
    total.insertions += shard->counters.insertions;
    total.evictions += shard->counters.evictions;
    total.expirations += shard->counters.expirations;
    total.key_collisions += shard->counters.key_collisions;
    total.entries += static_cast<long long>(shard->index.size());
    total.bytes += static_cast<long long>(shard->bytes);
  }
  return total;
}

void ShardedPlanCache::clear() {
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    shard->index.clear();
    shard->slab.clear();
    shard->free_slots.clear();
    shard->lru_head = shard->lru_tail = kNone;
    shard->bytes = 0;
  }
}

}  // namespace madpipe::serve
