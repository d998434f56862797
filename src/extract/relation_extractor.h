// Relation extractors: decide which co-occurring entity pairs express the
// target relation. Candidates are (attr1, attr2) mention pairs within one
// sentence. Three families, mirroring the paper's Section 4 choices:
// entity distance (Disease–Outbreak), a linear SVM over shallow context
// features (Giuliano et al., EACL'06 style; Person–Organization), and a
// subsequence-kernel classifier (Bunescu & Mooney, NIPS'05; the rest).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "corpus/corpus.h"
#include "learn/binary_svm.h"
#include "text/document.h"

namespace ie {

/// One candidate entity pair within a sentence.
struct RelationCandidate {
  const Sentence* sentence = nullptr;
  uint32_t sentence_index = 0;
  EntityMention attr1;
  EntityMention attr2;
};

/// Enumerates candidates: all (attr1-type, attr2-type) mention pairs that
/// share a sentence.
std::vector<RelationCandidate> EnumerateCandidates(
    const Document& doc, const std::vector<EntityMention>& mentions,
    EntityType attr1_type, EntityType attr2_type);

class RelationExtractor {
 public:
  virtual ~RelationExtractor() = default;

  /// True when the candidate pair expresses the relation.
  virtual bool Accept(const RelationCandidate& candidate) const = 0;

  virtual std::string name() const = 0;
};

/// Accepts pairs whose token gap is at most `max_distance` (the paper uses
/// entity distance to relate diseases to temporal expressions).
class DistanceRelationExtractor : public RelationExtractor {
 public:
  explicit DistanceRelationExtractor(uint32_t max_distance)
      : max_distance_(max_distance) {}

  bool Accept(const RelationCandidate& candidate) const override;
  std::string name() const override { return "distance"; }

 private:
  uint32_t max_distance_;
};

/// Linear SVM over hashed shallow context features: tokens between the
/// entities, a window fore and aft, and the bucketed distance.
class LinearSvmRelationExtractor : public RelationExtractor {
 public:
  explicit LinearSvmRelationExtractor(ElasticNetOptions options = {
                                          .lambda_all = 0.01,
                                          .lambda_l2_share = 1.0});

  /// Trains on candidates labeled against gold tuples.
  void Train(const std::vector<RelationCandidate>& candidates,
             const std::vector<int>& labels, int epochs, uint64_t seed = 31);

  bool Accept(const RelationCandidate& candidate) const override;
  std::string name() const override { return "linear_svm"; }

 private:
  SparseVector Features(const RelationCandidate& candidate) const;

  OnlineBinarySvm svm_;
};

/// Gap-weighted subsequence-kernel classifier (kernel perceptron with a
/// support-vector budget). The kernel operates on the token sequence
/// between the entities plus a small window on each side.
class SubsequenceKernelRelationExtractor : public RelationExtractor {
 public:
  struct Options {
    double decay = 0.75;       // gap penalty λ
    size_t max_subseq_len = 2; // subsequence length cap
    size_t budget = 96;        // max support vectors
    size_t window = 2;         // context tokens kept on each side
    int epochs = 3;
  };

  SubsequenceKernelRelationExtractor() = default;
  explicit SubsequenceKernelRelationExtractor(Options options)
      : options_(options) {}

  void Train(const std::vector<RelationCandidate>& candidates,
             const std::vector<int>& labels, uint64_t seed = 37);

  bool Accept(const RelationCandidate& candidate) const override;
  std::string name() const override { return "subseq_kernel"; }

  size_t NumSupportVectors() const { return support_.size(); }

  /// Read-only views of the trained model, for the reference decision in
  /// tests/kernel_oracle.h.
  const Options& options() const { return options_; }
  const std::vector<std::vector<TokenId>>& support_vectors() const {
    return support_;
  }
  const std::vector<double>& alphas() const { return alphas_; }
  double bias() const { return bias_; }

  /// Exposed for testing: normalized kernel between two token sequences.
  double NormalizedKernel(const std::vector<TokenId>& a,
                          const std::vector<TokenId>& b) const;

  /// The token sequence the kernel compares for a candidate: a window
  /// before, the capped between-tokens, a window after.
  std::vector<TokenId> CandidateSequence(
      const RelationCandidate& candidate) const;

  /// Kernel-perceptron margin of a candidate sequence; Accept is
  /// Decision > 0.
  double Decision(const std::vector<TokenId>& seq) const;

 private:
  double RawKernel(const std::vector<TokenId>& a,
                   const std::vector<TokenId>& b) const;

  Options options_{};
  std::vector<std::vector<TokenId>> support_;
  std::vector<double> alphas_;
  std::vector<double> self_kernel_;  // cached K(sv, sv)
  double bias_ = 0.0;
};

/// Labels candidates against gold tuples: a candidate is positive when a
/// gold tuple with matching attribute values exists in the same sentence.
std::vector<int> LabelCandidates(
    const std::vector<RelationCandidate>& candidates,
    const DocAnnotations& annotations, RelationId relation);

}  // namespace ie
