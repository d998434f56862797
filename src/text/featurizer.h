// Featurization: documents -> sparse feature vectors. The feature space is
// the shared Vocabulary, so word features and tuple-attribute features
// ("attr:tsunami") coexist in one id space, as the paper's ranking models
// require ("the documents' words as well as the attribute values of tuples
// extracted from them as features").
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/document.h"
#include "text/sparse_vector.h"
#include "text/vocabulary.h"

namespace ie {

/// One feature format: unigram weights 1 + ln(tf), attribute features
/// weight 1, the whole vector ℓ2-normalized (standard for SVM-based text
/// models).
/// No idf: it overfits the small initial samples (rare terms dominate).
class Featurizer {
 public:
  /// `vocab` must outlive the featurizer; attribute features are interned
  /// into it on demand.
  explicit Featurizer(Vocabulary* vocab) : vocab_(vocab) {}

  /// Bag-of-words features for a document.
  ///
  /// Thread safety: safe to call concurrently (the speculative extraction
  /// executor featurizes on worker threads) provided nothing else mutates
  /// the vocabulary concurrently. Interning a *new* attribute feature
  /// mutates the vocabulary, so parallel phases must be preceded by an
  /// AttributeFeatureId pass over the documents involved (the pipeline
  /// does this).
  SparseVector Featurize(const Document& doc) const;

  /// Featurize and append tuple-attribute features: one feature
  /// "attr:<value>" per distinct attribute value, weight 1 (before
  /// normalization).
  SparseVector Featurize(const Document& doc,
                         const std::vector<std::string>& attribute_values)
      const;

  /// Id of the attribute feature for `value` (interned).
  uint32_t AttributeFeatureId(std::string_view value) const;

  Vocabulary* vocab() const { return vocab_; }

 private:
  SparseVector FeaturizeImpl(
      const Document& doc,
      const std::vector<std::string>* attribute_values) const;

  Vocabulary* vocab_;
};

}  // namespace ie
