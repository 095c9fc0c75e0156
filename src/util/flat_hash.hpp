// Open-addressing hash table for the planner hot paths.
//
// std::unordered_map pays a node allocation, a pointer chase and (in the DP
// memo's old find/emplace/assign pattern) three hashings per state. This
// table keeps entries inline in one flat power-of-two array with linear
// probing, so a lookup is one mix of the key plus a short contiguous scan,
// and insert-or-find is a single probe sequence. It is deliberately minimal:
// 64-bit keys, trivially-copyable values. Deletion (added for the serve
// plan cache's LRU) uses backward-shift compaction instead of tombstones,
// so probe sequences stay short no matter how many entries churn.
//
// One key value (~0, kEmptyKey) is reserved to mark empty slots; the DP's
// packed states use at most 44 bits, so the sentinel is never a real key.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/expect.hpp"

namespace madpipe::util {

/// Finalizer of splitmix64: a cheap, well-mixing 64-bit hash.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <typename Value>
class FlatHash64 {
  static_assert(std::is_trivially_copyable_v<Value>,
                "FlatHash64 stores values inline and memcpy-moves them on "
                "growth");

 public:
  static constexpr std::uint64_t kEmptyKey = ~0ull;

  struct Slot {
    std::uint64_t key = kEmptyKey;
    Value value{};
  };

  /// `expected` is a size heuristic: capacity is the smallest power of two
  /// that holds `expected` entries under the maximum load factor, so a
  /// well-guessed reserve avoids every growth rehash on the hot path.
  explicit FlatHash64(std::size_t expected = 0) { rehash_for(expected); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return slots_.size(); }
  double load_factor() const noexcept {
    return slots_.empty()
               ? 0.0
               : static_cast<double>(size_) / static_cast<double>(capacity());
  }

  /// Growth rehashes that moved live entries (reserve-time growth of an
  /// empty table is free and not counted).
  std::size_t rehashes() const noexcept { return rehashes_; }
  /// Entry-moving rehashes a reserve() skipped: the doublings lazy growth
  /// would have performed to reach the reserved capacity.
  std::size_t rehashes_avoided() const noexcept { return rehashes_avoided_; }

  /// Grow (never shrink) so that `expected` entries fit without rehashing.
  void reserve(std::size_t expected) {
    const std::size_t target = needed_capacity(expected);
    if (target <= slots_.size()) return;
    std::size_t doublings = 0;
    for (std::size_t c = slots_.size(); c < target; c *= 2) ++doublings;
    const bool moves_entries = size_ > 0;  // rehash_for counts this one
    rehash_for(expected);
    rehashes_avoided_ += doublings - (moves_entries ? 1 : 0);
  }

  void clear() noexcept {
    for (Slot& slot : slots_) slot.key = kEmptyKey;
    size_ = 0;
  }

  /// Pointer to the value stored under `key`, or nullptr. Never invalidated
  /// by other finds; invalidated by any insert (the table may rehash).
  const Value* find(std::uint64_t key) const noexcept {
    const Slot* slot = probe(key);
    return slot->key == key ? &slot->value : nullptr;
  }
  Value* find(std::uint64_t key) noexcept {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  /// Single-probe insert-or-find: returns the value slot for `key` and
  /// whether it was newly inserted (in which case it holds a copy of
  /// `value`). An existing entry is left untouched, and only an insert can
  /// grow the table (growth probes once more).
  std::pair<Value*, bool> emplace(std::uint64_t key, const Value& value) {
    MP_EXPECT(key != kEmptyKey, "the all-ones key is reserved");
    Slot* slot = probe_mutable(key);
    if (slot->key == key) return {&slot->value, false};
    if ((size_ + 1) * 8 > slots_.size() * 7) {
      rehash_for(size_ + 1);
      slot = probe_mutable(key);
    }
    slot->key = key;
    slot->value = value;
    ++size_;
    return {&slot->value, true};
  }

  /// Remove `key` if present; returns whether an entry was removed.
  /// Backward-shift deletion: entries displaced past the hole are slid back
  /// toward their home slot, so the table never accumulates tombstones and
  /// `find` keeps its no-deleted-marker probe loop. Invalidates pointers
  /// previously returned by find/emplace.
  bool erase(std::uint64_t key) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
    while (slots_[i].key != key) {
      if (slots_[i].key == kEmptyKey) return false;
      i = (i + 1) & mask;
    }
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (slots_[j].key == kEmptyKey) break;
      const std::size_t home =
          static_cast<std::size_t>(mix64(slots_[j].key)) & mask;
      // Move slots_[j] into the hole at i only when its home position lies
      // cyclically at-or-before i (otherwise the move would break the
      // contiguous probe run between home and j).
      if (((j - home) & mask) >= ((j - i) & mask)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
    return true;
  }

 private:
  static std::size_t needed_capacity(std::size_t expected) {
    std::size_t capacity = 16;
    // Keep the load factor at or below 7/8 after `expected` insertions.
    while (capacity * 7 < expected * 8) capacity *= 2;
    return capacity;
  }

  const Slot* probe(std::uint64_t key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
    while (slots_[i].key != key && slots_[i].key != kEmptyKey) {
      i = (i + 1) & mask;
    }
    return &slots_[i];
  }
  Slot* probe_mutable(std::uint64_t key) noexcept {
    return const_cast<Slot*>(probe(key));
  }

  void rehash_for(std::size_t expected) {
    const std::size_t capacity =
        std::max(needed_capacity(expected), slots_.size() * 2);
    if (size_ > 0) ++rehashes_;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    for (const Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      *probe_mutable(slot.key) = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t rehashes_ = 0;
  std::size_t rehashes_avoided_ = 0;
};

/// Append-only, insertion-ordered 64-bit key set with O(1) membership.
///
/// The DP wavefront slabs use it to dedup states emitted by concurrent
/// shards while keeping a stable enumeration order: appending per-shard
/// emission buffers in shard order reproduces the serial emission sequence
/// for any shard count (shards are contiguous ranges of the parent slab),
/// so the set's key order — and therefore every index stored in it — is
/// independent of how many threads produced the buffers.
class IndexedKeySet64 {
 public:
  explicit IndexedKeySet64(std::size_t expected = 0) : index_(expected) {
    keys_.reserve(expected);
  }

  std::size_t size() const noexcept { return keys_.size(); }
  bool empty() const noexcept { return keys_.empty(); }
  const std::vector<std::uint64_t>& keys() const noexcept { return keys_; }
  std::uint64_t key_at(std::size_t i) const noexcept { return keys_[i]; }
  double load_factor() const noexcept { return index_.load_factor(); }
  std::size_t rehashes() const noexcept { return index_.rehashes(); }
  std::size_t rehashes_avoided() const noexcept {
    return index_.rehashes_avoided();
  }

  void reserve(std::size_t expected) {
    index_.reserve(expected);
    keys_.reserve(expected);
  }

  /// Index of `key` in insertion order, or −1 when absent.
  std::int32_t find(std::uint64_t key) const noexcept {
    const std::int32_t* idx = index_.find(key);
    return idx ? *idx : -1;
  }

  /// Insert if absent; returns {insertion index, whether it was new}.
  std::pair<std::int32_t, bool> insert(std::uint64_t key) {
    const auto [slot, inserted] =
        index_.emplace(key, static_cast<std::int32_t>(keys_.size()));
    if (inserted) keys_.push_back(key);
    return {*slot, inserted};
  }

  /// Append the keys of [begin, end) in order, skipping ones already
  /// present, refusing to grow past `cap` total keys. Returns false iff the
  /// cap truncated the merge (a *new* key was dropped — duplicates past the
  /// cap do not count as truncation).
  bool merge_shard(const std::uint64_t* begin, const std::uint64_t* end,
                   std::size_t cap) {
    for (const std::uint64_t* it = begin; it != end; ++it) {
      if (index_.find(*it) != nullptr) continue;
      if (keys_.size() >= cap) return false;
      index_.emplace(*it, static_cast<std::int32_t>(keys_.size()));
      keys_.push_back(*it);
    }
    return true;
  }

 private:
  std::vector<std::uint64_t> keys_;
  FlatHash64<std::int32_t> index_;
};

}  // namespace madpipe::util
