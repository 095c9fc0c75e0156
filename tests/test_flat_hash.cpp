#include "util/flat_hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace madpipe::util {
namespace {

TEST(FlatHash, InsertFindRoundTrip) {
  FlatHash64<double> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.find(42), nullptr);

  const auto [slot, inserted] = table.emplace(42, 1.5);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*slot, 1.5);
  ASSERT_NE(table.find(42), nullptr);
  EXPECT_EQ(*table.find(42), 1.5);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatHash, EmplaceFindsExistingWithoutOverwrite) {
  FlatHash64<int> table;
  table.emplace(7, 100);
  const auto [slot, inserted] = table.emplace(7, 200);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*slot, 100);  // the existing value is left untouched
  *slot = 300;            // ...but the returned slot is writable
  EXPECT_EQ(*table.find(7), 300);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatHash, GrowsPastInitialCapacityAndKeepsEverything) {
  FlatHash64<std::uint64_t> table;
  constexpr std::uint64_t kCount = 10'000;
  for (std::uint64_t key = 0; key < kCount; ++key) {
    table.emplace(key, key * 3);
  }
  EXPECT_EQ(table.size(), kCount);
  EXPECT_LE(table.load_factor(), 7.0 / 8.0);
  for (std::uint64_t key = 0; key < kCount; ++key) {
    ASSERT_NE(table.find(key), nullptr) << key;
    EXPECT_EQ(*table.find(key), key * 3) << key;
  }
  EXPECT_EQ(table.find(kCount + 1), nullptr);
}

TEST(FlatHash, HandlesCollidingProbeChains) {
  // Keys a power-of-two stride apart collide heavily under any masked hash;
  // linear probing must still keep them all distinct.
  FlatHash64<int> table;
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    keys.push_back(static_cast<std::uint64_t>(i) << 20);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    table.emplace(keys[i], static_cast<int>(i));
  }
  EXPECT_EQ(table.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(table.find(keys[i]), nullptr);
    EXPECT_EQ(*table.find(keys[i]), static_cast<int>(i));
  }
}

TEST(FlatHash, ReserveAvoidsRehashGrowth) {
  FlatHash64<int> table(4'000);
  const std::size_t capacity = table.capacity();
  EXPECT_GE(capacity * 7, 4'000u * 8);  // fits under the max load factor
  for (std::uint64_t key = 1; key <= 4'000; ++key) {
    table.emplace(key, 1);
  }
  EXPECT_EQ(table.capacity(), capacity);  // no growth happened

  table.reserve(100);  // never shrinks
  EXPECT_EQ(table.capacity(), capacity);
}

TEST(FlatHash, CountsRehashesAndAvoidedRehashes) {
  FlatHash64<int> grown;
  EXPECT_EQ(grown.rehashes(), 0u);
  for (std::uint64_t key = 1; key <= 4'000; ++key) grown.emplace(key, 1);
  // Lazy growth from the 16-slot default to 8192 moves entries 9 times.
  EXPECT_EQ(grown.rehashes(), 9u);
  EXPECT_EQ(grown.rehashes_avoided(), 0u);

  FlatHash64<int> reserved;
  reserved.reserve(4'000);
  // The same doublings, skipped while the table was empty.
  EXPECT_EQ(reserved.rehashes_avoided(), 9u);
  for (std::uint64_t key = 1; key <= 4'000; ++key) reserved.emplace(key, 1);
  EXPECT_EQ(reserved.rehashes(), 0u);

  // A late reserve with entries present pays one rehash for the rest.
  FlatHash64<int> late;
  for (std::uint64_t key = 1; key <= 100; ++key) late.emplace(key, 1);
  const std::size_t before = late.rehashes();
  late.reserve(4'000);
  EXPECT_EQ(late.rehashes(), before + 1);
  EXPECT_GT(late.rehashes_avoided(), 0u);
}

TEST(FlatHash, ClearEmptiesButKeepsCapacity) {
  FlatHash64<int> table;
  for (std::uint64_t key = 1; key <= 100; ++key) table.emplace(key, 1);
  const std::size_t capacity = table.capacity();
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.capacity(), capacity);
  EXPECT_EQ(table.find(50), nullptr);
  table.emplace(50, 2);
  EXPECT_EQ(*table.find(50), 2);
}

TEST(FlatHash, AgreesWithUnorderedMapOnPseudoRandomWorkload) {
  FlatHash64<std::uint64_t> table;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  std::uint64_t state = 0x123456789ull;
  for (int i = 0; i < 20'000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t key = state >> 20;  // plenty of duplicates
    if (key == FlatHash64<std::uint64_t>::kEmptyKey) continue;
    const auto [slot, inserted] = table.emplace(key, state);
    const auto [it, oracle_inserted] = oracle.emplace(key, state);
    EXPECT_EQ(inserted, oracle_inserted);
    EXPECT_EQ(*slot, it->second);
  }
  EXPECT_EQ(table.size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    ASSERT_NE(table.find(key), nullptr);
    EXPECT_EQ(*table.find(key), value);
  }
}

TEST(FlatHash, EraseBasics) {
  FlatHash64<int> table;
  table.emplace(1, 10);
  table.emplace(2, 20);
  EXPECT_TRUE(table.erase(1));
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_FALSE(table.erase(1));  // already gone
  EXPECT_FALSE(table.erase(99));
  ASSERT_NE(table.find(2), nullptr);
  EXPECT_EQ(*table.find(2), 20);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatHash, EraseBackwardShiftPreservesProbeChains) {
  // Dense clusters stress the backward-shift deletion: after erasing any
  // element, every survivor must stay findable (no tombstones to hide it).
  FlatHash64<std::uint64_t> table;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; k <= 200; ++k) keys.push_back(k);
  for (const std::uint64_t key : keys) table.emplace(key, key * 3);
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_TRUE(table.erase(keys[i]));
    // Every not-yet-erased key is still reachable through its probe chain.
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      ASSERT_NE(table.find(keys[j]), nullptr) << "lost key " << keys[j]
                                              << " after erasing " << keys[i];
    }
  }
}

TEST(FlatHash, EraseAgreesWithUnorderedMapOnMixedWorkload) {
  FlatHash64<std::uint64_t> table;
  std::unordered_map<std::uint64_t, std::uint64_t> oracle;
  std::uint64_t state = 0xdeadbeefull;
  for (int i = 0; i < 30'000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t key = state >> 52;  // tiny key space: heavy churn
    if (key == FlatHash64<std::uint64_t>::kEmptyKey) continue;
    const std::uint64_t op = (state >> 8) % 3;
    if (op == 0) {
      EXPECT_EQ(table.erase(key), oracle.erase(key) > 0) << "op " << i;
    } else {
      const auto [slot, inserted] = table.emplace(key, state);
      const auto [it, oracle_inserted] = oracle.emplace(key, state);
      EXPECT_EQ(inserted, oracle_inserted);
      EXPECT_EQ(*slot, it->second);
    }
    if (i % 1000 == 0) {
      ASSERT_EQ(table.size(), oracle.size()) << "op " << i;
    }
  }
  EXPECT_EQ(table.size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    ASSERT_NE(table.find(key), nullptr);
    EXPECT_EQ(*table.find(key), value);
  }
}

}  // namespace
}  // namespace madpipe::util
