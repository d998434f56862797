// The reference CRF-lite recognizer — the oracle for CrfLiteNer's compiled
// emission tables (DESIGN.md §20). It is the recognizer as it stood before
// them: dense [label][slot] weight tables, every position's five features
// hashed on every call, and the same structured-perceptron Train. The
// product must label every sentence exactly as it does (CrfOracleTest in
// tests/ner_test.cc). Header-only, like tests/kernel_oracle.h. Its
// arithmetic is the reference: change it only together with the product
// code, operation for operation.
#pragma once

#include <array>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "extract/crf_ner.h"

namespace ie::test {

class ReferenceCrfLiteNer : public SequenceTaggerNer {
 public:
  ReferenceCrfLiteNer(EntityType type, const Vocabulary* vocab,
                      CrfOptions options = {})
      : SequenceTaggerNer(type, vocab),
        options_(options),
        mask_((1u << options.hash_bits) - 1),
        unary_(kNumBioLabels,
               std::vector<float>(size_t{1} << options.hash_bits, 0.0f)) {
    for (auto& row : transition_) row.fill(0.0f);
  }

  void Train(const std::vector<TaggedSentence>& data, uint64_t seed = 29) {
    Rng rng(seed);
    std::vector<size_t> order(data.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<uint32_t> features;
    for (int epoch = 0; epoch < options_.epochs; ++epoch) {
      rng.Shuffle(order);
      for (size_t idx : order) {
        const TaggedSentence& ts = data[idx];
        const std::vector<uint8_t> predicted = Viterbi(*ts.sentence);
        if (predicted == ts.labels) continue;
        uint8_t prev_gold = kNumBioLabels;
        uint8_t prev_pred = kNumBioLabels;
        for (size_t pos = 0; pos < ts.labels.size(); ++pos) {
          const uint8_t gold = ts.labels[pos];
          const uint8_t pred = predicted[pos];
          if (gold != pred) {
            CollectFeatures(*ts.sentence, pos, features);
            for (uint32_t f : features) {
              unary_[gold][f] += 1.0f;
              unary_[pred][f] -= 1.0f;
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
  }

  std::string name() const override { return "crf_lite_reference"; }

 protected:
  std::vector<uint8_t> Label(const Sentence& sentence) const override {
    return Viterbi(sentence);
  }

 private:
  static uint32_t HashFeature(uint32_t kind, uint64_t value, uint32_t mask) {
    uint64_t h = static_cast<uint64_t>(kind) * 0xc2b2ae3d27d4eb4fULL ^
                 (value + 0x165667b19e3779f9ULL);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
    return static_cast<uint32_t>(h) & mask;
  }

  static constexpr uint64_t kBoundary = 0xfffffffffffffffULL;

  void CollectFeatures(const Sentence& sentence, size_t pos,
                       std::vector<uint32_t>& features) const {
    features.clear();
    const auto& tokens = sentence.tokens;
    features.push_back(HashFeature(0, tokens[pos], mask_));
    features.push_back(
        HashFeature(1, pos > 0 ? tokens[pos - 1] : kBoundary, mask_));
    features.push_back(HashFeature(
        2, pos + 1 < tokens.size() ? tokens[pos + 1] : kBoundary, mask_));
    features.push_back(HashFeature(
        3,
        (static_cast<uint64_t>(pos > 0 ? tokens[pos - 1] : kBoundary)
         << 32) |
            tokens[pos],
        mask_));
    features.push_back(HashFeature(4, 1, mask_));
  }

  std::vector<uint8_t> Viterbi(const Sentence& sentence) const {
    const size_t n = sentence.tokens.size();
    std::vector<uint8_t> labels(n, kO);
    if (n == 0) return labels;
    std::vector<std::array<double, kNumBioLabels>> delta(n);
    std::vector<std::array<uint8_t, kNumBioLabels>> back(n);
    std::vector<uint32_t> features;
    for (size_t pos = 0; pos < n; ++pos) {
      CollectFeatures(sentence, pos, features);
      std::array<double, kNumBioLabels> unary{};
      for (size_t y = 0; y < kNumBioLabels; ++y) {
        double s = 0.0;
        for (uint32_t f : features) s += static_cast<double>(unary_[y][f]);
        unary[y] = s;
      }
      if (pos == 0) {
        for (size_t y = 0; y < kNumBioLabels; ++y) {
          delta[0][y] = unary[y];
          back[0][y] = 0;
        }
        continue;
      }
      for (size_t y = 0; y < kNumBioLabels; ++y) {
        double best = -1e300;
        uint8_t arg = 0;
        for (size_t y0 = 0; y0 < kNumBioLabels; ++y0) {
          const double v =
              delta[pos - 1][y0] + static_cast<double>(transition_[y0][y]);
          if (v > best) {
            best = v;
            arg = static_cast<uint8_t>(y0);
          }
        }
        delta[pos][y] = best + unary[y];
        back[pos][y] = arg;
      }
    }
    double best = -1e300;
    for (size_t y = 0; y < kNumBioLabels; ++y) {
      if (delta[n - 1][y] > best) {
        best = delta[n - 1][y];
        labels[n - 1] = static_cast<uint8_t>(y);
      }
    }
    for (size_t i = n - 1; i > 0; --i) {
      labels[i - 1] = back[i][labels[i]];
    }
    return labels;
  }

  CrfOptions options_;
  uint32_t mask_;
  std::vector<std::vector<float>> unary_;  // [label][hashed feature]
  std::array<std::array<float, kNumBioLabels>, kNumBioLabels> transition_;
};

}  // namespace ie::test
