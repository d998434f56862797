// Maximum Entropy Markov Model BIO tagger (McCallum et al., ICML'00) —
// substitute for the MEMM the paper uses for Natural Disaster entities.
// Per-token multinomial logistic regression over hashed local features
// (current/previous/next token, previous label), trained with SGD on gold
// sequences and decoded greedily left-to-right.
#pragma once

#include <vector>

#include "extract/sequence_tagger.h"

namespace ie {

class MemmNer : public SequenceTaggerNer {
 public:
  MemmNer(EntityType type, const Vocabulary* vocab);

  void Train(const std::vector<TaggedSentence>& data, uint64_t seed = 23);

  std::string name() const override { return "memm"; }

 protected:
  std::vector<uint8_t> Label(const Sentence& sentence) const override;

 private:
  void CollectFeatures(const Sentence& sentence, size_t pos,
                       uint8_t prev_label,
                       std::vector<uint32_t>& features) const;
  void Scores(const std::vector<uint32_t>& features,
              double scores[kNumBioLabels]) const;

  std::vector<std::vector<float>> weights_;  // [label][hashed feature]
};

}  // namespace ie
