#include "extract/crf_ner.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/rng.h"

namespace ie {

namespace {

inline uint32_t HashFeature(uint32_t kind, uint64_t value, uint32_t mask) {
  uint64_t h = static_cast<uint64_t>(kind) * 0xc2b2ae3d27d4eb4fULL ^
               (value + 0x165667b19e3779f9ULL);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 31;
  return static_cast<uint32_t>(h) & mask;
}

constexpr uint64_t kBoundary = 0xfffffffffffffffULL;

// Feature kinds, in the order a position's emission sums them: current,
// previous and next token, the (previous, current) bigram, and the bias.
constexpr uint32_t kCurKind = 0;
constexpr uint32_t kPrevKind = 1;
constexpr uint32_t kNextKind = 2;
constexpr uint32_t kBigramKind = 3;
constexpr uint32_t kBiasKind = 4;
constexpr size_t kNumFeatures = 5;
constexpr size_t kTokenKinds = 3;
constexpr size_t kRowFloats = kTokenKinds * kNumBioLabels;

using FeatureSlots = std::array<uint32_t, kNumFeatures>;
/// The label weights of a position's five features, in kind order.
using FeatureRows = std::array<const float*, kNumFeatures>;

uint64_t BigramKey(const std::vector<TokenId>& tokens, size_t pos) {
  return (static_cast<uint64_t>(pos > 0 ? tokens[pos - 1] : kBoundary)
          << 32) |
         tokens[pos];
}

FeatureSlots CollectFeatures(const Sentence& sentence, size_t pos,
                             uint32_t mask) {
  const auto& tokens = sentence.tokens;
  return {HashFeature(kCurKind, tokens[pos], mask),
          HashFeature(kPrevKind, pos > 0 ? tokens[pos - 1] : kBoundary, mask),
          HashFeature(kNextKind,
                      pos + 1 < tokens.size() ? tokens[pos + 1] : kBoundary,
                      mask),
          HashFeature(kBigramKind, BigramKey(tokens, pos), mask),
          HashFeature(kBiasKind, 1, mask)};
}

// Reusable per-thread Viterbi scratch: flat DP tables grown to the longest
// sentence a thread has decoded, instead of a fresh vector<array> pair per
// sentence. thread_local because the speculative extraction executor runs
// Viterbi concurrently on worker threads; every cell read is written
// earlier in the same call, so reuse never leaks state between sentences
// (tests/ner_test.cc pins this).
struct ViterbiScratch {
  std::vector<double> delta;  // n × kNumBioLabels, row-major
  std::vector<uint8_t> back;  // same layout
};

ViterbiScratch& GetViterbiScratch() {
  thread_local ViterbiScratch scratch;
  return scratch;
}

// The one Viterbi DP. `rows_at(pos)` gives the five feature rows of a
// position; each label's emission sums them in kind order, in double.
template <typename RowsAt>
std::vector<uint8_t> Decode(
    size_t n,
    const std::array<std::array<float, kNumBioLabels>, kNumBioLabels>&
        transition,
    const RowsAt& rows_at) {
  std::vector<uint8_t> labels(n, kO);
  if (n == 0) return labels;

  ViterbiScratch& scratch = GetViterbiScratch();
  if (scratch.delta.size() < n * kNumBioLabels) {
    scratch.delta.resize(n * kNumBioLabels);
    scratch.back.resize(n * kNumBioLabels);
  }
  double* delta = scratch.delta.data();
  uint8_t* back = scratch.back.data();

  for (size_t pos = 0; pos < n; ++pos) {
    const FeatureRows rows = rows_at(pos);
    std::array<double, kNumBioLabels> unary{};
    for (size_t y = 0; y < kNumBioLabels; ++y) {
      double s = 0.0;
      for (const float* row : rows) s += static_cast<double>(row[y]);
      unary[y] = s;
    }
    double* delta_row = delta + pos * kNumBioLabels;
    uint8_t* back_row = back + pos * kNumBioLabels;
    if (pos == 0) {
      for (size_t y = 0; y < kNumBioLabels; ++y) {
        delta_row[y] = unary[y];
        back_row[y] = 0;
      }
      continue;
    }
    const double* prev_row = delta_row - kNumBioLabels;
    for (size_t y = 0; y < kNumBioLabels; ++y) {
      double best = -1e300;
      uint8_t arg = 0;
      for (size_t y0 = 0; y0 < kNumBioLabels; ++y0) {
        const double v = prev_row[y0] + static_cast<double>(transition[y0][y]);
        if (v > best) {
          best = v;
          arg = static_cast<uint8_t>(y0);
        }
      }
      delta_row[y] = best + unary[y];
      back_row[y] = arg;
    }
  }
  double best = -1e300;
  const double* last_row = delta + (n - 1) * kNumBioLabels;
  for (size_t y = 0; y < kNumBioLabels; ++y) {
    if (last_row[y] > best) {
      best = last_row[y];
      labels[n - 1] = static_cast<uint8_t>(y);
    }
  }
  for (size_t i = n - 1; i > 0; --i) {
    labels[i - 1] = back[i * kNumBioLabels + labels[i]];
  }
  return labels;
}

bool IsZeroRow(const float* row) {
  for (size_t y = 0; y < kNumBioLabels; ++y) {
    if (std::bit_cast<uint32_t>(row[y]) != 0) return false;
  }
  return true;
}

size_t NumSlotWords(uint32_t hash_bits) {
  return ((size_t{1} << hash_bits) + 63) / 64;
}

}  // namespace

CrfLiteNer::CrfLiteNer(EntityType type, const Vocabulary* vocab,
                       CrfOptions options)
    : SequenceTaggerNer(type, vocab),
      options_(options),
      mask_((1u << options.hash_bits) - 1),
      slot_bits_(NumSlotWords(options.hash_bits), 0),
      slot_rank_(NumSlotWords(options.hash_bits), 0) {}

inline const float* CrfLiteNer::SlotWeights(uint32_t slot) const {
  static constexpr LabelRow kZeros{};
  const uint64_t word = slot_bits_[slot >> 6];
  const uint64_t bit = uint64_t{1} << (slot & 63);
  if ((word & bit) == 0) return kZeros.data();
  // Only a hit pays for the popcount (a libgcc call at the build's flags).
  const size_t rank = slot_rank_[slot >> 6] +
                      static_cast<size_t>(std::popcount(word & (bit - 1)));
  return slot_weights_.data() + rank * kNumBioLabels;
}

inline const float* CrfLiteNer::TokenWeights(uint32_t kind,
                                             TokenId token) const {
  const size_t offset = static_cast<size_t>(token) * kRowFloats;
  if (offset < token_rows_.size()) {
    return token_rows_.data() + offset + kind * kNumBioLabels;
  }
  return SlotWeights(HashFeature(kind, token, mask_));
}

std::vector<float> CrfLiteNer::Densify() const {
  std::vector<float> dense((size_t{mask_} + 1) * kNumBioLabels, 0.0f);
  for (uint32_t slot = 0; slot <= mask_; ++slot) {
    std::copy_n(SlotWeights(slot), kNumBioLabels,
                dense.data() + size_t{slot} * kNumBioLabels);
  }
  return dense;
}

void CrfLiteNer::Compile(const std::vector<float>& dense) {
  const auto row = [&dense](uint64_t slot) {
    return dense.data() + slot * kNumBioLabels;
  };
  slot_weights_.clear();
  uint32_t rank = 0;
  for (size_t word = 0; word < slot_bits_.size(); ++word) {
    slot_rank_[word] = rank;
    uint64_t bits = 0;
    for (uint32_t b = 0; b < 64; ++b) {
      const uint64_t slot = word * 64 + b;
      if (slot > mask_ || IsZeroRow(row(slot))) continue;
      bits |= uint64_t{1} << b;
      slot_weights_.insert(slot_weights_.end(), row(slot),
                           row(slot) + kNumBioLabels);
      ++rank;
    }
    slot_bits_[word] = bits;
  }
  token_rows_.resize(vocab_->size() * kRowFloats);
  for (size_t token = 0; token < vocab_->size(); ++token) {
    for (uint32_t kind = 0; kind < kTokenKinds; ++kind) {
      std::copy_n(row(HashFeature(kind, token, mask_)), kNumBioLabels,
                  token_rows_.data() + token * kRowFloats +
                      kind * kNumBioLabels);
    }
  }
  std::copy_n(row(HashFeature(kPrevKind, kBoundary, mask_)), kNumBioLabels,
              prev_boundary_.begin());
  std::copy_n(row(HashFeature(kNextKind, kBoundary, mask_)), kNumBioLabels,
              next_boundary_.begin());
  std::copy_n(row(HashFeature(kBiasKind, 1, mask_)), kNumBioLabels,
              bias_.begin());
}

void CrfLiteNer::Train(const std::vector<TaggedSentence>& data,
                       uint64_t seed) {
  std::vector<float> dense = Densify();  // [slot][label]
  Rng rng(seed);
  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t idx : order) {
      const TaggedSentence& ts = data[idx];
      const Sentence& sentence = *ts.sentence;
      const std::vector<uint8_t> predicted =
          Decode(sentence.size(), transition_, [&](size_t pos) {
            const FeatureSlots slots = CollectFeatures(sentence, pos, mask_);
            FeatureRows rows{};
            for (size_t k = 0; k < kNumFeatures; ++k) {
              rows[k] = dense.data() + size_t{slots[k]} * kNumBioLabels;
            }
            return rows;
          });
      if (predicted == ts.labels) continue;
      // Structured perceptron update: +gold features, -predicted features.
      uint8_t prev_gold = kNumBioLabels;  // sentinel: no previous
      uint8_t prev_pred = kNumBioLabels;
      for (size_t pos = 0; pos < ts.labels.size(); ++pos) {
        const uint8_t gold = ts.labels[pos];
        const uint8_t pred = predicted[pos];
        if (gold != pred) {
          for (uint32_t f : CollectFeatures(sentence, pos, mask_)) {
            dense[f * kNumBioLabels + gold] += 1.0f;
            dense[f * kNumBioLabels + pred] -= 1.0f;
          }
        }
        if (pos > 0) {
          transition_[prev_gold][gold] += 1.0f;
          transition_[prev_pred][pred] -= 1.0f;
        }
        prev_gold = gold;
        prev_pred = pred;
      }
    }
  }
  Compile(dense);
}

std::vector<uint8_t> CrfLiteNer::Label(const Sentence& sentence) const {
  const std::vector<TokenId>& tokens = sentence.tokens;
  const size_t n = tokens.size();
  return Decode(n, transition_, [&](size_t pos) {
    return FeatureRows{
        TokenWeights(kCurKind, tokens[pos]),
        pos > 0 ? TokenWeights(kPrevKind, tokens[pos - 1])
                : prev_boundary_.data(),
        pos + 1 < n ? TokenWeights(kNextKind, tokens[pos + 1])
                    : next_boundary_.data(),
        SlotWeights(HashFeature(kBigramKind, BigramKey(tokens, pos), mask_)),
        bias_.data()};
  });
}

}  // namespace ie
