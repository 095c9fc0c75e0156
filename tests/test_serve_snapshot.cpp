// Cache snapshot (madpipe-cachesnap-v1) tests: a save→load round trip must
// turn every snapshotted key into a verified first-request hit, bit
// identical to the pre-restart plan and without a single planner run;
// corruption, truncation, and key/fingerprint mismatches must be rejected,
// never half-loaded; saving must be safe while the service is under load.
#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "madpipe/planner.hpp"
#include "serve/service.hpp"

namespace madpipe::serve {
namespace {

Chain ragged_chain() {
  std::vector<Layer> layers;
  for (int l = 1; l <= 8; ++l) {
    Layer layer;
    layer.name = "l" + std::to_string(l);
    layer.forward_time = ms(1.0 + 0.37 * l);
    layer.backward_time = ms(2.0 + 0.61 * l);
    layer.weight_bytes = (3.0 + l) * MB;
    layer.output_bytes = (40.0 + 7.0 * l) * MB;
    layers.push_back(layer);
  }
  return Chain("ragged", 25 * MB, std::move(layers));
}

MadPipeOptions quick_options() {
  MadPipeOptions options;
  options.phase1.dp.grid = Discretization::coarse();
  return options;
}

PlanRequest make_request(const std::string& id, double memory_gb = 2.0) {
  return PlanRequest{id,
                     ragged_chain(),
                     Platform{4, memory_gb * GB, 12 * GB},
                     quick_options(),
                     0.0};
}

std::string snapshot_path(const char* name) {
  return testing::TempDir() + "madpipe_snap_" + name + ".bin";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

void spit(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

// Same FNV-1a the snapshot trailer uses; the tamper test re-stamps the
// checksum so only the *semantic* verification can catch the edit.
std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

void restamp_checksum(std::string& data) {
  const std::size_t payload = data.size() - sizeof(std::uint64_t);
  const std::uint64_t checksum = fnv1a(data.data(), payload);
  std::memcpy(data.data() + payload, &checksum, sizeof(checksum));
}

TEST(ServeSnapshot, SaveLoadRoundTripServesVerifiedBitIdenticalHits) {
  const std::string path = snapshot_path("roundtrip");
  const PlanRequest r1 = make_request("one", 2.0);
  const PlanRequest r2 = make_request("two", 4.0);

  PlanService before;
  const PlanResponse p1 = before.plan(r1);
  const PlanResponse p2 = before.plan(r2);
  ASSERT_EQ(p1.status, ResponseStatus::Ok);
  ASSERT_EQ(p2.status, ResponseStatus::Ok);

  const SnapshotSaveResult saved = save_cache_snapshot(before.cache(), path);
  ASSERT_TRUE(saved.ok) << saved.error;
  EXPECT_EQ(saved.entries, 2u);
  EXPECT_GT(saved.bytes, 0u);

  // A fresh service ("after restart"): the first request on every
  // snapshotted key is a hit, bit-identical, with zero planner runs.
  PlanService after;
  const SnapshotLoadResult loaded = load_cache_snapshot(after.cache(), path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.loaded, 2u);
  EXPECT_EQ(loaded.rejected, 0u);

  const PlanResponse h1 = after.plan(r1);
  const PlanResponse h2 = after.plan(r2);
  EXPECT_EQ(h1.cache, CacheOutcome::Hit);
  EXPECT_EQ(h2.cache, CacheOutcome::Hit);
  ASSERT_TRUE(h1.plan.has_value());
  ASSERT_TRUE(h2.plan.has_value());
  ASSERT_TRUE(p1.plan.has_value());
  ASSERT_TRUE(p2.plan.has_value());
  EXPECT_TRUE(plans_bit_identical(*h1.plan, *p1.plan));
  EXPECT_TRUE(plans_bit_identical(*h2.plan, *p2.plan));
  EXPECT_EQ(after.stats().planner_runs, 0);
  std::remove(path.c_str());
}

TEST(ServeSnapshot, InfeasibleNegativeEntryRoundTrips) {
  const std::string path = snapshot_path("negative");
  // 8 MB/processor cannot hold the ragged chain: a cached negative result.
  const PlanRequest impossible = make_request("no-fit", 0.008);

  PlanService before;
  const PlanResponse miss = before.plan(impossible);
  ASSERT_EQ(miss.status, ResponseStatus::Infeasible);
  const SnapshotSaveResult saved = save_cache_snapshot(before.cache(), path);
  ASSERT_TRUE(saved.ok) << saved.error;
  EXPECT_EQ(saved.entries, 1u);

  PlanService after;
  const SnapshotLoadResult loaded = load_cache_snapshot(after.cache(), path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.loaded, 1u);

  const PlanResponse hit = after.plan(impossible);
  EXPECT_EQ(hit.status, ResponseStatus::Infeasible);
  EXPECT_EQ(hit.cache, CacheOutcome::Hit);
  EXPECT_EQ(after.stats().planner_runs, 0);
  std::remove(path.c_str());
}

TEST(ServeSnapshot, CorruptedBytesAreRejectedWholesale) {
  const std::string path = snapshot_path("corrupt");
  PlanService service;
  service.plan(make_request("x"));
  ASSERT_TRUE(save_cache_snapshot(service.cache(), path).ok);

  std::string data = slurp(path);
  ASSERT_GT(data.size(), 64u);
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x5a);
  spit(path, data);

  PlanService fresh;
  const SnapshotLoadResult loaded = load_cache_snapshot(fresh.cache(), path);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("checksum"), std::string::npos) << loaded.error;
  EXPECT_EQ(loaded.loaded, 0u);
  std::remove(path.c_str());
}

TEST(ServeSnapshot, TruncatedSnapshotIsRejected) {
  const std::string path = snapshot_path("truncated");
  PlanService service;
  service.plan(make_request("x"));
  ASSERT_TRUE(save_cache_snapshot(service.cache(), path).ok);

  std::string data = slurp(path);
  spit(path, data.substr(0, data.size() - 9));

  PlanService fresh;
  const SnapshotLoadResult loaded = load_cache_snapshot(fresh.cache(), path);
  EXPECT_FALSE(loaded.ok);
  EXPECT_EQ(loaded.loaded, 0u);
  std::remove(path.c_str());
}

TEST(ServeSnapshot, TamperedKeyFailsFingerprintVerification) {
  const std::string path = snapshot_path("tampered");
  PlanService service;
  service.plan(make_request("x"));
  ASSERT_TRUE(save_cache_snapshot(service.cache(), path).ok);

  // Flip one byte of the first entry's key (magic 21 + endian 4 + count 8
  // puts it at offset 33) and re-stamp the checksum: the bytes are "intact"
  // but key != digest(fingerprint), so the verified load must skip it.
  std::string data = slurp(path);
  const std::size_t key_offset = 21 + 4 + 8;
  ASSERT_GT(data.size(), key_offset + 8);
  data[key_offset] = static_cast<char>(data[key_offset] ^ 0xff);
  restamp_checksum(data);
  spit(path, data);

  PlanService fresh;
  const SnapshotLoadResult loaded = load_cache_snapshot(fresh.cache(), path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.loaded, 0u);
  EXPECT_EQ(loaded.rejected, 1u);

  // The poisoned entry never reaches the cache: the request plans fresh.
  const PlanResponse response = fresh.plan(make_request("x"));
  EXPECT_EQ(response.cache, CacheOutcome::Miss);
  std::remove(path.c_str());
}

TEST(ServeSnapshot, StaleKeyPrefixIsRejected) {
  const std::string path = snapshot_path("stale");
  PlanService service;
  service.plan(make_request("x"));
  ASSERT_TRUE(save_cache_snapshot(service.cache(), path).ok);

  // Rewrite the one entry as an older build would have stored it: the
  // fingerprint under the v1 prefix, its key the digest of that fingerprint
  // (so digest verification alone would pass it), the checksum re-stamped.
  std::string data = slurp(path);
  const std::size_t key_offset = 21 + 4 + 8;
  const std::size_t fingerprint_offset = key_offset + 8 + 4;
  std::uint32_t length = 0;
  std::memcpy(&length, data.data() + key_offset + 8, sizeof(length));
  ASSERT_GT(data.size(), fingerprint_offset + length);
  std::string fingerprint = data.substr(fingerprint_offset, length);
  ASSERT_TRUE(fingerprint.starts_with(kCacheKeyPrefix));
  const std::string v1_prefix = "madpipe-serve-key-v1|";
  ASSERT_EQ(v1_prefix.size(), kCacheKeyPrefix.size());
  fingerprint.replace(0, v1_prefix.size(), v1_prefix);
  data.replace(fingerprint_offset, length, fingerprint);
  const std::uint64_t key = fingerprint_digest(fingerprint);
  std::memcpy(data.data() + key_offset, &key, sizeof(key));
  restamp_checksum(data);
  spit(path, data);

  PlanService fresh;
  const SnapshotLoadResult loaded = load_cache_snapshot(fresh.cache(), path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.loaded, 0u);
  EXPECT_EQ(loaded.rejected, 1u);
  EXPECT_EQ(fresh.cache_counters().entries, 0);
  std::remove(path.c_str());
}

// A reloaded entry carries no explain summary; the first explain hit on it
// builds one, equal to the summary the pre-restart miss served.
TEST(ServeSnapshot, ExplainHitOnReloadedEntryMatchesTheMiss) {
  const std::string path = snapshot_path("explain");
  PlanRequest request = make_request("x");
  request.report_explain = true;
  PlanService before;
  const PlanResponse miss = before.plan(request);
  ASSERT_TRUE(miss.explain.has_value());
  ASSERT_TRUE(save_cache_snapshot(before.cache(), path).ok);

  PlanService after;
  ASSERT_EQ(load_cache_snapshot(after.cache(), path).loaded, 1u);
  const PlanResponse hit = after.plan(request);
  EXPECT_EQ(hit.cache, CacheOutcome::Hit);
  ASSERT_TRUE(hit.explain.has_value());
  EXPECT_EQ(hit.explain->period, miss.explain->period);
  EXPECT_EQ(hit.explain->period, hit.plan->period());
  EXPECT_EQ(hit.explain->critical_resource, miss.explain->critical_resource);
  EXPECT_EQ(hit.explain->memory_peak_bytes, miss.explain->memory_peak_bytes);
  EXPECT_EQ(hit.explain->memory_headroom_bytes,
            miss.explain->memory_headroom_bytes);
  EXPECT_EQ(hit.explain->mean_gpu_utilization,
            miss.explain->mean_gpu_utilization);
  EXPECT_EQ(after.stats().planner_runs, 0);
  std::remove(path.c_str());
}

TEST(ServeSnapshot, SaveIsConsistentUnderConcurrentServing) {
  const std::string path = snapshot_path("underload");
  PlanService service;
  // Pre-plan a few keys, then hammer hits on them while snapshots run.
  std::vector<PlanRequest> pool;
  for (int k = 0; k < 4; ++k) {
    pool.push_back(make_request("pool" + std::to_string(k), 2.0 + k));
    service.plan(pool.back());
  }

  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 50; ++i) {
        service.plan(pool[static_cast<std::size_t>((c + i) % 4)]);
      }
    });
  }
  SnapshotSaveResult last;
  for (int s = 0; s < 5; ++s) {
    last = save_cache_snapshot(service.cache(), path);
    ASSERT_TRUE(last.ok) << last.error;
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(last.entries, 4u);

  PlanService fresh;
  const SnapshotLoadResult loaded = load_cache_snapshot(fresh.cache(), path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.loaded, 4u);
  for (const PlanRequest& request : pool) {
    EXPECT_EQ(fresh.plan(request).cache, CacheOutcome::Hit);
  }
  EXPECT_EQ(fresh.stats().planner_runs, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace madpipe::serve
