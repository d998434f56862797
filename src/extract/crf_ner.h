// Linear-chain sequence tagger with Viterbi decoding, trained with the
// structured perceptron (Collins'02) — our "CRF-lite". Substitute for the
// CRF-based recognizers the paper uses (Stanford NER for Person/Location,
// CONLL-style CRFs for the remaining entity types). Unary scores come from
// hashed local features; a dense 3×3 transition matrix captures label
// dependencies.
//
// Training runs on a dense [slot][label] table; `Train` then compiles it
// into the tables decoding reads (DESIGN.md §20): per-token rows for the
// token features, and the few slots training left non-zero for the rest.
#pragma once

#include <array>
#include <vector>

#include "extract/sequence_tagger.h"

namespace ie {

struct CrfOptions {
  uint32_t hash_bits = 18;
  int epochs = 5;
};

class CrfLiteNer : public SequenceTaggerNer {
 public:
  CrfLiteNer(EntityType type, const Vocabulary* vocab, CrfOptions options = {});

  /// Runs the perceptron from the current weights, then recompiles the
  /// decoding tables over the vocabulary as it stands on return.
  void Train(const std::vector<TaggedSentence>& data, uint64_t seed = 29);

  std::string name() const override { return "crf_lite"; }

 protected:
  std::vector<uint8_t> Label(const Sentence& sentence) const override;

 private:
  /// One float per label, the weights of one hashed feature slot.
  using LabelRow = std::array<float, kNumBioLabels>;

  /// The weights of hashed slot `slot`; zeros when training left it zero.
  const float* SlotWeights(uint32_t slot) const;
  /// The weights of the current- (kind 0), previous- (1) or next-token (2)
  /// feature of `token`: its row, or its hashed slot when the token was
  /// interned after `Train`.
  const float* TokenWeights(uint32_t kind, TokenId token) const;
  /// Builds the decoding tables from a dense [slot][label] table.
  void Compile(const std::vector<float>& dense);
  /// The dense [slot][label] table the compiled tables came from.
  std::vector<float> Densify() const;

  CrfOptions options_;
  uint32_t mask_;
  /// [token id][kind 0..2][label] for every id interned when `Train`
  /// returned.
  std::vector<float> token_rows_;
  LabelRow prev_boundary_{};  // previous-token feature at position 0
  LabelRow next_boundary_{};  // next-token feature at the last position
  LabelRow bias_{};
  /// Bit s is set iff hashed slot s holds a non-zero weight.
  std::vector<uint64_t> slot_bits_;
  /// Set bits in the words before each word of slot_bits_.
  std::vector<uint32_t> slot_rank_;
  /// [rank][label], the weights of the set slots in slot order.
  std::vector<float> slot_weights_;
  std::array<LabelRow, kNumBioLabels> transition_{};
};

}  // namespace ie
