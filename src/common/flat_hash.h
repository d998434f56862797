// Hashing for the interning hot paths (DESIGN.md §14): the splitmix64
// mixer, a deterministic string hash, and FlatIdIndex, the Vocabulary's
// open-addressing string -> id index. The featurizer's per-document count
// table probes with the same mixer.
//
// FlatIdIndex uses linear probing over a power-of-two capacity and
// supports no erase — interning only ever inserts — so there are no
// tombstones and growth is a straight re-insert of the live slots. It has
// no iteration API, so its slot order cannot leak into any output.
#pragma once

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
