// Plan-cache persistence: `madpipe-cachesnap-v1`, a versioned binary
// snapshot of the sharded LRU so a restarted server starts warm instead of
// re-planning the world.
//
// Layout (little-endian on every supported platform; an endian tag guards
// against foreign files):
//
//   "madpipe-cachesnap-v1\n"            magic + version
//   u32   0x01020304                    endianness tag
//   u64   entry count
//   per entry:
//     u64   cache key (digest of the fingerprint — re-derived and verified
//           on load, so a corrupted or hand-edited pair is rejected)
//     str   canonical fingerprint       (u32 length + bytes)
//     u64   creator_time_unit bits      (exact double round-trip)
//     u64   creator_byte_unit bits
//     u8    feasible (0 = negative-cache entry, no plan payload)
//     plan payload when feasible:
//       str   planner name
//       u32   num_processors
//       u32   num_stages; per stage: i32 first, i32 last, i32 processor
//       u64   phase1_period bits
//       u64   pattern period bits
//       u32   op count; per op: u8 kind, i32 stage,
//             u8 resource kind, i32 a, i32 b,
//             u64 start bits, u64 duration bits, i64 shift
//   u64   FNV-1a checksum of everything above
//
// Provenance (PlannerStats, planning_seconds) is deliberately not persisted:
// it is excluded from plans_bit_identical and differs run to run, so a
// reloaded hit is bit-identical to the pre-restart plan where it counts.
#pragma once

#include <cstddef>
#include <string>

#include "serve/plan_cache.hpp"

namespace madpipe::serve {

inline constexpr const char* kCacheSnapshotSchema = "madpipe-cachesnap-v1";

struct SnapshotSaveResult {
  bool ok = false;
  std::size_t entries = 0;  ///< entries written
  std::size_t bytes = 0;    ///< file size
  std::string error;
};

struct SnapshotLoadResult {
  bool ok = false;           ///< file parsed and checksum verified
  std::size_t loaded = 0;    ///< entries inserted into the cache
  /// Entries whose key failed digest verification or whose fingerprint
  /// lacks today's kCacheKeyPrefix (written by a build that planned
  /// differently; such an entry could never hit).
  std::size_t rejected = 0;
  std::string error;
};

/// Export every resident entry and write the snapshot atomically
/// (tmp file + rename). Safe to call while the cache is serving traffic —
/// export locks one shard at a time.
SnapshotSaveResult save_cache_snapshot(const ShardedPlanCache& cache,
                                       const std::string& path);

/// Parse, checksum-verify and load a snapshot into `cache` (via the normal
/// insert path, so byte budgets and LRU order apply — entries are stored
/// hottest-first, which keeps the hottest plans under a smaller budget).
/// Each entry's key must equal fingerprint_digest(fingerprint) and its
/// fingerprint must start with kCacheKeyPrefix; other entries are skipped
/// and counted in `rejected`, they never poison the cache.
SnapshotLoadResult load_cache_snapshot(ShardedPlanCache& cache,
                                       const std::string& path);

}  // namespace madpipe::serve
