// Tests for the interning index and the mixer (common/flat_hash.h):
// growth, shared-hash disambiguation, and randomized parity against
// std::unordered_map on 100k keys.
#include "common/flat_hash.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace ie {
namespace {

TEST(FlatIdIndexTest, InterningParityVsUnorderedMap100k) {
  // Drive FlatIdIndex exactly as Vocabulary does: terms_ is the backing
  // store, ids are assigned densely in insertion order.
  FlatIdIndex index;
  std::vector<std::string> terms;
  std::unordered_map<std::string, uint32_t> reference;
  Rng rng(42);
  auto intern = [&](const std::string& term) {
    const uint64_t hash = HashBytes(term);
    const uint32_t found =
        index.Find(hash, [&](uint32_t id) { return terms[id] == term; });
    if (found != FlatIdIndex::kNotFound) return found;
    const uint32_t id = static_cast<uint32_t>(terms.size());
    terms.push_back(term);
    index.Insert(hash, id);
    return id;
  };
  for (size_t i = 0; i < 100000; ++i) {
    const std::string term = "term-" + std::to_string(rng.NextBounded(60000));
    const uint32_t id = intern(term);
    auto [it, inserted] = reference.emplace(term, id);
    EXPECT_EQ(it->second, id) << term;
  }
  ASSERT_EQ(index.size(), reference.size());
  ASSERT_EQ(terms.size(), reference.size());
  for (const auto& [term, id] : reference) {
    const uint32_t found = index.Find(
        HashBytes(term), [&](uint32_t i) { return terms[i] == term; });
    EXPECT_EQ(found, id) << term;
  }
  const uint32_t absent = index.Find(
      HashBytes("never-interned"),
      [&](uint32_t i) { return terms[i] == "never-interned"; });
  EXPECT_EQ(absent, FlatIdIndex::kNotFound);
}

TEST(FlatIdIndexTest, SharedHashDisambiguatedByEq) {
  // Two distinct "keys" deliberately stored under one hash: Find must use
  // eq() to pick the right id, proving hash collisions cannot alias terms.
  FlatIdIndex index;
  const std::vector<std::string> terms = {"alpha", "beta"};
  const uint64_t hash = 0x12345678u;
  index.Insert(hash, 0);
  index.Insert(hash, 1);
  EXPECT_EQ(index.Find(hash, [&](uint32_t id) { return terms[id] == "beta"; }),
            1u);
  EXPECT_EQ(
      index.Find(hash, [&](uint32_t id) { return terms[id] == "alpha"; }),
      0u);
  EXPECT_EQ(
      index.Find(hash, [&](uint32_t id) { return terms[id] == "gamma"; }),
      FlatIdIndex::kNotFound);
}

TEST(FlatIdIndexTest, GrowthReinsertsByStoredHash) {
  FlatIdIndex index;
  std::vector<std::string> terms;
  for (uint32_t i = 0; i < 5000; ++i) {
    terms.push_back("t" + std::to_string(i));
    index.Insert(HashBytes(terms.back()), i);
  }
  EXPECT_EQ(index.size(), 5000u);
  for (uint32_t i = 0; i < 5000; ++i) {
    const uint32_t found = index.Find(
        HashBytes(terms[i]), [&](uint32_t id) { return terms[id] == terms[i]; });
    EXPECT_EQ(found, i);
  }
}

TEST(Mix64Test, MixesSequentialKeysApart) {
  // Sequential keys (the token-id workload) must not produce sequential
  // hashes — that is precisely the std::hash<uint64_t> identity hazard the
  // mixer exists to fix.
  size_t same_low_byte = 0;
  for (uint64_t k = 0; k < 256; ++k) {
    if ((Mix64(k) & 0xffu) == (k & 0xffu)) ++same_low_byte;
  }
  EXPECT_LT(same_low_byte, 16u);  // identity would give 256
}

}  // namespace
}  // namespace ie
