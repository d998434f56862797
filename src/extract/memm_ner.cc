#include "extract/memm_ner.h"

#include <cmath>
#include <numeric>

#include "common/rng.h"

namespace ie {

namespace {

inline uint32_t HashFeature(uint32_t kind, uint64_t value, uint32_t mask) {
  uint64_t h = static_cast<uint64_t>(kind) * 0x9e3779b97f4a7c15ULL ^
               (value + 0x632be59bd9b4e019ULL);
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return static_cast<uint32_t>(h) & mask;
}

constexpr uint64_t kBoundary = 0xfffffffffffffffULL;

constexpr uint32_t kHashBits = 18;  // feature space = 2^kHashBits per label
constexpr uint32_t kMask = (1u << kHashBits) - 1;
constexpr int kEpochs = 4;
constexpr double kLearningRate = 0.2;

}  // namespace

MemmNer::MemmNer(EntityType type, const Vocabulary* vocab)
    : SequenceTaggerNer(type, vocab),
      weights_(kNumBioLabels, std::vector<float>(1u << kHashBits, 0.0f)) {}

void MemmNer::CollectFeatures(const Sentence& sentence, size_t pos,
                              uint8_t prev_label,
                              std::vector<uint32_t>& features) const {
  features.clear();
  const auto& tokens = sentence.tokens;
  features.push_back(HashFeature(0, tokens[pos], kMask));  // current word
  features.push_back(HashFeature(
      1, pos > 0 ? tokens[pos - 1] : kBoundary, kMask));   // previous word
  features.push_back(HashFeature(
      2, pos + 1 < tokens.size() ? tokens[pos + 1] : kBoundary, kMask));
  features.push_back(HashFeature(3, prev_label, kMask));   // previous label
  features.push_back(HashFeature(4, 1, kMask));            // bias
  // Conjunction: previous label × current word (Markov dependency).
  features.push_back(HashFeature(
      5, (static_cast<uint64_t>(prev_label) << 32) | tokens[pos], kMask));
}

void MemmNer::Scores(const std::vector<uint32_t>& features,
                     double scores[kNumBioLabels]) const {
  for (size_t y = 0; y < kNumBioLabels; ++y) {
    double s = 0.0;
    for (uint32_t f : features) s += static_cast<double>(weights_[y][f]);
    scores[y] = s;
  }
}

void MemmNer::Train(const std::vector<TaggedSentence>& data, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<uint32_t> features;

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    rng.Shuffle(order);
    const double eta = kLearningRate / (1.0 + epoch);
    for (size_t idx : order) {
      const TaggedSentence& ts = data[idx];
      uint8_t prev = kO;
      for (size_t pos = 0; pos < ts.sentence->tokens.size(); ++pos) {
        CollectFeatures(*ts.sentence, pos, prev, features);
        double scores[kNumBioLabels];
        Scores(features, scores);
        // Softmax.
        const double max_score =
            std::max({scores[0], scores[1], scores[2]});
        double z = 0.0;
        double p[kNumBioLabels];
        for (size_t y = 0; y < kNumBioLabels; ++y) {
          p[y] = std::exp(scores[y] - max_score);
          z += p[y];
        }
        const uint8_t gold = ts.labels[pos];
        for (size_t y = 0; y < kNumBioLabels; ++y) {
          const double grad = (y == gold ? 1.0 : 0.0) - p[y] / z;
          if (grad == 0.0) continue;
          const float delta = static_cast<float>(eta * grad);
          for (uint32_t f : features) weights_[y][f] += delta;
        }
        prev = gold;  // teacher forcing
      }
    }
  }
}

std::vector<uint8_t> MemmNer::Label(const Sentence& sentence) const {
  const size_t n = sentence.tokens.size();
  std::vector<uint8_t> labels(n, kO);
  // Per-thread feature scratch (the extraction executor decodes on worker
  // threads); fully rewritten by CollectFeatures at every position.
  thread_local std::vector<uint32_t> features;
  uint8_t prev = kO;
  for (size_t pos = 0; pos < n; ++pos) {
    CollectFeatures(sentence, pos, prev, features);
    double scores[kNumBioLabels];
    Scores(features, scores);
    uint8_t best = kO;
    for (size_t y = 1; y < kNumBioLabels; ++y) {
      if (scores[y] > scores[best]) best = static_cast<uint8_t>(y);
    }
    labels[pos] = best;
    prev = best;
  }
  return labels;
}

}  // namespace ie
