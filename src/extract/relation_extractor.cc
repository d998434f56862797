#include "extract/relation_extractor.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace ie {

namespace {

// Cap on the between-entity tokens the subsequence kernel sees.
constexpr uint32_t kMaxBetween = 8;

inline uint32_t HashFeature(uint32_t kind, uint64_t value) {
  uint64_t h = static_cast<uint64_t>(kind) * 0x9e3779b97f4a7c15ULL ^
               (value + 0xd6e8feb86659fd93ULL);
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return static_cast<uint32_t>(h) & ((1u << 20) - 1);
}

// Token gap between the two mentions (0 when adjacent/overlapping).
uint32_t TokenGap(const RelationCandidate& c) {
  const uint32_t lo_end = std::min(c.attr1.end, c.attr2.end);
  const uint32_t hi_begin = std::max(c.attr1.begin, c.attr2.begin);
  return hi_begin > lo_end ? hi_begin - lo_end : 0;
}

// Reusable per-thread kernel scratch: RawKernel's two DP tables, flat
// (row-major, (n+1) × (m+1)) and grown to the largest pair a thread has
// compared, so that a call allocates nothing once warm. thread_local because
// ExtractionOutcomes::Compute and the speculative extraction executor call
// Accept on worker threads. Every cell a call reads is written earlier in
// the same call, so reuse never leaks state between calls
// (KernelOracleTest in tests/relation_extractor_test.cc pins this).
struct KernelScratch {
  std::vector<double> prev;  // K'_{q-1}
  std::vector<double> cur;   // K'_q
};

KernelScratch& GetKernelScratch() {
  thread_local KernelScratch scratch;
  return scratch;
}

}  // namespace

std::vector<RelationCandidate> EnumerateCandidates(
    const Document& doc, const std::vector<EntityMention>& mentions,
    EntityType attr1_type, EntityType attr2_type) {
  std::vector<RelationCandidate> candidates;
  for (uint32_t s = 0; s < doc.sentences.size(); ++s) {
    for (const EntityMention& m1 : mentions) {
      if (m1.sentence != s || m1.type != attr1_type) continue;
      for (const EntityMention& m2 : mentions) {
        if (m2.sentence != s || m2.type != attr2_type) continue;
        if (attr1_type == attr2_type && m1.begin == m2.begin &&
            m1.end == m2.end) {
          continue;  // same span cannot relate to itself
        }
        candidates.push_back({&doc.sentences[s], s, m1, m2});
      }
    }
  }
  return candidates;
}

bool DistanceRelationExtractor::Accept(
    const RelationCandidate& candidate) const {
  return TokenGap(candidate) <= max_distance_;
}

LinearSvmRelationExtractor::LinearSvmRelationExtractor(
    ElasticNetOptions options)
    : svm_(options) {}

SparseVector LinearSvmRelationExtractor::Features(
    const RelationCandidate& candidate) const {
  const auto& tokens = candidate.sentence->tokens;
  std::vector<SparseVector::Entry> entries;

  const uint32_t between_begin =
      std::min(candidate.attr1.end, candidate.attr2.end);
  const uint32_t between_end =
      std::max(candidate.attr1.begin, candidate.attr2.begin);
  for (uint32_t i = between_begin; i < between_end && i < tokens.size();
       ++i) {
    entries.emplace_back(HashFeature(0, tokens[i]), 1.0f);
  }
  const uint32_t first_begin =
      std::min(candidate.attr1.begin, candidate.attr2.begin);
  const uint32_t last_end =
      std::max(candidate.attr1.end, candidate.attr2.end);
  for (uint32_t i = first_begin > 2 ? first_begin - 2 : 0; i < first_begin;
       ++i) {
    entries.emplace_back(HashFeature(1, tokens[i]), 1.0f);
  }
  for (uint32_t i = last_end;
       i < std::min<uint32_t>(last_end + 2,
                              static_cast<uint32_t>(tokens.size()));
       ++i) {
    entries.emplace_back(HashFeature(2, tokens[i]), 1.0f);
  }
  // Bucketed distance and direction.
  const uint32_t gap = TokenGap(candidate);
  entries.emplace_back(HashFeature(3, std::min<uint32_t>(gap, 8)), 1.0f);
  entries.emplace_back(
      HashFeature(4, candidate.attr1.begin < candidate.attr2.begin ? 1 : 0),
      1.0f);
  entries.emplace_back(HashFeature(5, 1), 1.0f);  // bias-ish constant

  SparseVector v = SparseVector::FromUnsorted(std::move(entries));
  v.Normalize();
  return v;
}

void LinearSvmRelationExtractor::Train(
    const std::vector<RelationCandidate>& candidates,
    const std::vector<int>& labels, int epochs, uint64_t seed) {
  std::vector<LabeledExample> examples;
  examples.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    examples.push_back({Features(candidates[i]), labels[i]});
  }
  Rng rng(seed);
  svm_.TrainBatch(examples, epochs, &rng);
}

bool LinearSvmRelationExtractor::Accept(
    const RelationCandidate& candidate) const {
  return svm_.Predict(Features(candidate));
}

std::vector<TokenId> SubsequenceKernelRelationExtractor::CandidateSequence(
    const RelationCandidate& candidate) const {
  const auto& tokens = candidate.sentence->tokens;
  const uint32_t between_begin =
      std::min(candidate.attr1.end, candidate.attr2.end);
  const uint32_t between_end =
      std::max(candidate.attr1.begin, candidate.attr2.begin);
  const uint32_t first_begin =
      std::min(candidate.attr1.begin, candidate.attr2.begin);
  const uint32_t last_end =
      std::max(candidate.attr1.end, candidate.attr2.end);

  std::vector<TokenId> seq;
  const uint32_t fore_begin =
      first_begin > options_.window
          ? first_begin - static_cast<uint32_t>(options_.window)
          : 0;
  for (uint32_t i = fore_begin; i < first_begin; ++i) {
    seq.push_back(tokens[i]);
  }
  uint32_t between_count = 0;
  for (uint32_t i = between_begin;
       i < between_end && between_count < kMaxBetween;
       ++i, ++between_count) {
    seq.push_back(tokens[i]);
  }
  for (uint32_t i = last_end;
       i < std::min<uint32_t>(
               last_end + static_cast<uint32_t>(options_.window),
               static_cast<uint32_t>(tokens.size()));
       ++i) {
    seq.push_back(tokens[i]);
  }
  return seq;
}

double SubsequenceKernelRelationExtractor::RawKernel(
    const std::vector<TokenId>& a, const std::vector<TokenId>& b) const {
  // Gap-weighted subsequence kernel (Lodhi et al. / Bunescu & Mooney):
  // K_p(s,t) counts common subsequences of length <= p, each weighted by
  // decay^(total spanned length). Dynamic program over prefix tables.
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return 0.0;
  const double lam = options_.decay;
  const size_t p = options_.max_subseq_len;

  // kpp[i·stride + j]: K'_{q}(a_1..i, b_1..j) auxiliary table for the
  // current q; kpp_prev holds K'_{q-1}, all ones for q = 1.
  const size_t stride = m + 1;
  const size_t cells = (n + 1) * stride;
  KernelScratch& scratch = GetKernelScratch();
  if (scratch.prev.size() < cells) {
    scratch.prev.resize(cells);
    scratch.cur.resize(cells);
  }
  double* kpp_prev = scratch.prev.data();
  double* kpp = scratch.cur.data();
  std::fill(kpp_prev, kpp_prev + cells, 1.0);
  double total = 0.0;

  for (size_t q = 1; q <= p; ++q) {
    double kq = 0.0;  // K_q(s, t)
    for (size_t i = 0; i <= n; ++i) kpp[i * stride] = 0.0;
    for (size_t j = 0; j <= m; ++j) kpp[j] = 0.0;
    for (size_t i = 1; i <= n; ++i) {
      const double* diag = kpp_prev + (i - 1) * stride;  // row i-1 of q-1
      const double* up = kpp + (i - 1) * stride;         // row i-1 of q
      double* row = kpp + i * stride;
      double kpps = 0.0;  // running K''
      for (size_t j = 1; j <= m; ++j) {
        kpps = lam * kpps;
        if (a[i - 1] == b[j - 1]) {
          kpps += lam * lam * diag[j - 1];
          kq += lam * lam * diag[j - 1];
        }
        row[j] = lam * up[j] + kpps;
      }
    }
    total += kq;
    std::swap(kpp, kpp_prev);
  }
  return total;
}

double SubsequenceKernelRelationExtractor::NormalizedKernel(
    const std::vector<TokenId>& a, const std::vector<TokenId>& b) const {
  const double kaa = RawKernel(a, a);
  const double kbb = RawKernel(b, b);
  if (kaa <= 0.0 || kbb <= 0.0) return 0.0;
  return RawKernel(a, b) / std::sqrt(kaa * kbb);
}

double SubsequenceKernelRelationExtractor::Decision(
    const std::vector<TokenId>& seq) const {
  const double kss = RawKernel(seq, seq);
  if (kss <= 0.0) return bias_;
  double f = bias_;
  for (size_t i = 0; i < support_.size(); ++i) {
    const double k = RawKernel(support_[i], seq) /
                     std::sqrt(self_kernel_[i] * kss);
    f += alphas_[i] * k;
  }
  return f;
}

void SubsequenceKernelRelationExtractor::Train(
    const std::vector<RelationCandidate>& candidates,
    const std::vector<int>& labels, uint64_t seed) {
  std::vector<std::vector<TokenId>> sequences;
  sequences.reserve(candidates.size());
  for (const RelationCandidate& c : candidates) {
    sequences.push_back(CandidateSequence(c));
  }

  Rng rng(seed);
  std::vector<size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t idx : order) {
      const int y = labels[idx];
      const double f = Decision(sequences[idx]);
      if (static_cast<double>(y) * f > 0.0) continue;  // correct side
      // Kernel perceptron update.
      const double self = RawKernel(sequences[idx], sequences[idx]);
      if (self <= 0.0) continue;
      support_.push_back(sequences[idx]);
      alphas_.push_back(static_cast<double>(y));
      self_kernel_.push_back(self);
      bias_ += 0.1 * static_cast<double>(y);
      // Budget: evict the support vector with the smallest |α|.
      if (support_.size() > options_.budget) {
        size_t victim = 0;
        for (size_t i = 1; i < alphas_.size(); ++i) {
          if (std::fabs(alphas_[i]) < std::fabs(alphas_[victim])) victim = i;
        }
        support_.erase(support_.begin() + static_cast<long>(victim));
        alphas_.erase(alphas_.begin() + static_cast<long>(victim));
        self_kernel_.erase(self_kernel_.begin() +
                           static_cast<long>(victim));
      }
    }
  }
}

bool SubsequenceKernelRelationExtractor::Accept(
    const RelationCandidate& candidate) const {
  return Decision(CandidateSequence(candidate)) > 0.0;
}

std::vector<int> LabelCandidates(
    const std::vector<RelationCandidate>& candidates,
    const DocAnnotations& annotations, RelationId relation) {
  std::vector<int> labels;
  labels.reserve(candidates.size());
  for (const RelationCandidate& c : candidates) {
    int label = -1;
    for (const GoldTuple& t : annotations.tuples) {
      if (t.relation == relation && t.sentence == c.sentence_index &&
          t.attr1 == c.attr1.value && t.attr2 == c.attr2.value) {
        label = 1;
        break;
      }
    }
    labels.push_back(label);
  }
  return labels;
}

}  // namespace ie
