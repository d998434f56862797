// Open-addressing hash tables for the interning hot paths (DESIGN.md §14).
//
// Both tables use linear probing over a power-of-two capacity with a
// splitmix64-mixed hash, and neither supports erase — the interning
// workloads (Vocabulary term ids, per-document count accumulation) only
// ever insert — so there are no tombstones and growth is a straight
// re-insert of the live slots.
//
// Determinism: slot order depends on the hash function and insertion
// history, exactly like std::unordered_map bucket order. Iteration is
// therefore gated by the detlint `unordered-iteration` rule: go through
// ie::ForEachSorted (overloaded below for FlatHashMap) or carry a
//   // DETERMINISM: order-insensitive (<reason>)
// waiver at the ForEach call site.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace ie {

/// splitmix64 finalizer: a cheap, high-quality 64-bit mixer. Integer keys
/// (token ids, feature ids) go through this before masking —
/// std::hash<uint64_t> is the identity on libstdc++, which clusters
/// open-addressed probes catastrophically.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic 64-bit string hash (FNV-1a with a splitmix64 finalizer).
/// Stable across platforms and runs — interned ids never depend on it
/// (they are assigned in insertion order), but probe sequences do.
inline uint64_t HashBytes(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return Mix64(h);
}

/// Flat open-addressing map from a trivially-copyable integer key to a
/// small trivially-copyable value. No erase; Clear() keeps capacity.
template <typename K, typename V>
class FlatHashMap {
 public:
  FlatHashMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  /// Pointer to the value for `key`, or nullptr when absent.
  const V* Find(K key) const {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    size_t i = Mix64(static_cast<uint64_t>(key)) & mask;
    while (used_[i]) {
      if (slots_[i].first == key) return &slots_[i].second;
      i = (i + 1) & mask;
    }
    return nullptr;
  }
  V* Find(K key) {
    // ARCH: const-escape (Meyers const/non-const overload dedup: *this is
    // non-const here, so the cast only restores the caller's own access)
    return const_cast<V*>(static_cast<const FlatHashMap*>(this)->Find(key));
  }

  /// Inserts {key, value} if absent; returns {pointer to stored value,
  /// inserted}. Mirrors unordered_map::emplace: an existing mapping wins.
  std::pair<V*, bool> Emplace(K key, V value) {
    ReserveForOneMore();
    const size_t mask = slots_.size() - 1;
    size_t i = Mix64(static_cast<uint64_t>(key)) & mask;
    while (used_[i]) {
      if (slots_[i].first == key) return {&slots_[i].second, false};
      i = (i + 1) & mask;
    }
    used_[i] = 1;
    slots_[i] = {key, value};
    ++size_;
    return {&slots_[i].second, true};
  }

  /// Value for `key`, default-constructed and inserted when absent.
  V& operator[](K key) { return *Emplace(key, V{}).first; }

  /// Grows capacity so `n` mappings fit without rehashing.
  void Reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap *= 2;  // max load factor 3/4
    if (cap > slots_.size()) Rehash(cap);
  }

  /// Drops all mappings but keeps capacity (no deallocation).
  void Clear() {
    std::fill(used_.begin(), used_.end(), uint8_t{0});
    size_ = 0;
  }

  /// Calls fn(key, value) for every mapping in *slot* order — which is as
  /// nondeterministic as unordered_map bucket order. The detlint
  /// unordered-iteration rule gates call sites: use ie::ForEachSorted or
  /// carry an order-insensitivity waiver.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) fn(slots_[i].first, slots_[i].second);
    }
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  void ReserveForOneMore() {
    if (slots_.empty()) {
      Rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.size() * 2);
    }
  }

  void Rehash(size_t new_capacity) {
    std::vector<std::pair<K, V>> slots(new_capacity);
    std::vector<uint8_t> used(new_capacity, 0);
    const size_t mask = new_capacity - 1;
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (!used_[i]) continue;
      size_t j = Mix64(static_cast<uint64_t>(slots_[i].first)) & mask;
      while (used[j]) j = (j + 1) & mask;
      used[j] = 1;
      slots[j] = slots_[i];
    }
    slots_ = std::move(slots);
    used_ = std::move(used);
  }

  std::vector<std::pair<K, V>> slots_;
  std::vector<uint8_t> used_;
  size_t size_ = 0;
};

/// Calls fn(key, value) in ascending key order — the deterministic-iteration
/// facade (common/ordered.h) overload for FlatHashMap.
template <typename K, typename V, typename Fn>
void ForEachSorted(const FlatHashMap<K, V>& map, Fn&& fn) {
  std::vector<std::pair<K, V>> items;
  items.reserve(map.size());
  map.ForEach([&items](const K& key, const V& value) {
    items.emplace_back(key, value);
  });
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, value] : items) fn(key, value);
}

/// Interning index over externally stored keys: maps a precomputed 64-bit
/// key hash to a dense id, with key equality resolved by the caller (the
/// id indexes the caller's own term table, so keys are never stored or
/// re-hashed here — growth re-inserts live slots by their stored hash).
/// Vocabulary uses this for string -> id; there is no iteration API, so
/// iteration order cannot leak.
class FlatIdIndex {
 public:
  static constexpr uint32_t kNotFound = 0xffffffffu;

  size_t size() const { return size_; }

  /// Id stored under `hash` for which eq(id) holds, or kNotFound. Distinct
  /// keys may share a hash; `eq` disambiguates against the caller's table.
  template <typename Eq>
  uint32_t Find(uint64_t hash, Eq&& eq) const {
    if (slots_.empty()) return kNotFound;
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].id_plus_one != 0) {
      if (slots_[i].hash == hash) {
        const uint32_t id = slots_[i].id_plus_one - 1;
        if (eq(id)) return id;
      }
      i = (i + 1) & mask;
    }
    return kNotFound;
  }

  /// Records hash -> id. The key must be absent (Find first) and id must
  /// not be kNotFound.
  void Insert(uint64_t hash, uint32_t id) {
    ReserveForOneMore();
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].id_plus_one != 0) i = (i + 1) & mask;
    slots_[i] = {hash, id + 1};
    ++size_;
  }

  void Reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap *= 2;
    if (cap > slots_.size()) Rehash(cap);
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  struct Slot {
    uint64_t hash = 0;
    uint32_t id_plus_one = 0;  // 0 = empty
  };

  void ReserveForOneMore() {
    if (slots_.empty()) {
      Rehash(kMinCapacity);
    } else if ((size_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.size() * 2);
    }
  }

  void Rehash(size_t new_capacity) {
    std::vector<Slot> slots(new_capacity);
    const size_t mask = new_capacity - 1;
    for (const Slot& slot : slots_) {
      if (slot.id_plus_one == 0) continue;
      size_t j = slot.hash & mask;
      while (slots[j].id_plus_one != 0) j = (j + 1) & mask;
      slots[j] = slot;
    }
    slots_ = std::move(slots);
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace ie
