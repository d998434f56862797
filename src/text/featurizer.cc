#include "text/featurizer.h"

#include <algorithm>
#include <cmath>

#include "common/flat_hash.h"

namespace ie {

namespace {

// Per-thread featurization scratch, grown to the largest document seen and
// reused between documents, so steady-state featurization never
// round-trips the global allocator: the returned SparseVector's own arrays
// are the only per-doc allocations left. thread_local because the
// speculative executor featurizes on worker threads.
struct FeaturizeScratch {
  std::vector<uint32_t> keys;  // count table: feature id + 1; 0 = empty
  std::vector<float> counts;
  std::vector<SparseVector::Entry> entries;  // staging for FromEntrySpan
};

FeaturizeScratch& GetFeaturizeScratch() {
  thread_local FeaturizeScratch scratch;
  return scratch;
}

// Open-addressed feature-count accumulator over the scratch arrays. Keys
// are stored as id+1 so 0 marks an empty slot (feature id 0 is valid;
// Vocabulary::kInvalidId is never interned). Capacity is sized per
// document for a load factor of at most 1/2.
struct CountTable {
  uint32_t* keys;
  float* counts;
  size_t mask;

  CountTable(FeaturizeScratch& scratch, size_t max_distinct) {
    size_t cap = 16;
    while (cap < max_distinct * 2) cap *= 2;
    if (scratch.keys.size() < cap) {
      scratch.keys.resize(cap);
      scratch.counts.resize(cap);
    }
    keys = scratch.keys.data();
    counts = scratch.counts.data();
    std::fill(keys, keys + cap, 0u);
    mask = cap - 1;
  }

  void Bump(uint32_t id) {
    size_t i = Mix64(id) & mask;
    while (true) {
      if (keys[i] == id + 1) {
        counts[i] += 1.0f;
        return;
      }
      if (keys[i] == 0) {
        keys[i] = id + 1;
        counts[i] = 1.0f;
        return;
      }
      i = (i + 1) & mask;
    }
  }
};

}  // namespace

SparseVector Featurizer::FeaturizeImpl(
    const Document& doc,
    const std::vector<std::string>* attribute_values) const {
  FeaturizeScratch& scratch = GetFeaturizeScratch();

  size_t total_tokens = 0;
  for (const Sentence& sentence : doc.sentences) {
    total_tokens += sentence.tokens.size();
  }
  const size_t max_distinct = total_tokens + 1;
  CountTable table(scratch, max_distinct);
  for (const Sentence& sentence : doc.sentences) {
    for (TokenId token : sentence.tokens) table.Bump(token);
  }

  const size_t max_entries =
      max_distinct + (attribute_values ? attribute_values->size() : 0);
  if (scratch.entries.size() < max_entries) {
    scratch.entries.resize(max_entries);
  }
  SparseVector::Entry* entries = scratch.entries.data();
  size_t n = 0;
  // Slot-order visit of the count table. DETERMINISM: order-insensitive
  // (one entry per feature id, value independent of visit order;
  // FromEntrySpan re-sorts entries by id).
  for (size_t i = 0; i <= table.mask; ++i) {
    if (table.keys[i] == 0) continue;
    const float tf = table.counts[i];
    entries[n++] = {table.keys[i] - 1, 1.0f + std::log(tf)};
  }
  if (attribute_values != nullptr) {
    for (const std::string& value : *attribute_values) {
      entries[n++] = {AttributeFeatureId(value), 1.0f};
    }
  }
  SparseVector v = SparseVector::FromEntrySpan(entries, n);
  v.Normalize();
  return v;
}

SparseVector Featurizer::Featurize(const Document& doc) const {
  return FeaturizeImpl(doc, nullptr);
}

SparseVector Featurizer::Featurize(
    const Document& doc,
    const std::vector<std::string>& attribute_values) const {
  return FeaturizeImpl(doc, &attribute_values);
}

uint32_t Featurizer::AttributeFeatureId(std::string_view value) const {
  std::string feature = "attr:";
  feature += value;
  return vocab_->Intern(feature);
}

}  // namespace ie
