#include "corpus/generator.h"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "corpus/lexicon.h"
#include "corpus/topic_model.h"

namespace ie {

namespace {

// Background topic model size and document shape.
constexpr size_t kNumBackgroundTopics = 60;
constexpr size_t kWordsPerTopic = 120;
constexpr int kMinSentences = 8;
constexpr int kMaxSentences = 22;
constexpr int kMinTokensPerSentence = 7;
constexpr int kMaxTokensPerSentence = 16;

// Neutral connectors for co-occurrence negatives: both entity types appear
// in one sentence without expressing the relation.
const std::vector<std::string>& NeutralConnectors() {
  static const std::vector<std::string> kWords = {
      "visited",  "criticized", "praised",    "discussed",
      "met with", "wrote about", "toured",    "addressed",
      "mentioned", "interviewed"};
  return kWords;
}

// One planted anchor archetype: a relation subtopic (or a distractor twin
// that shares the vocabulary but plants no tuples).
struct Anchor {
  enum class Kind { kBackground, kRelation, kDistractor };
  Kind kind = Kind::kBackground;
  size_t background_topic = 0;   // kBackground
  RelationId relation = RelationId::kPersonOrganization;  // kRelation/kDistr.
  size_t subtopic = 0;
  double weight = 0.0;
};

// The document-at-a-time core. Construction runs the full setup (topic
// model, subtopics, anchor table); Next() then emits one document per call.
// The rng call sequence — setup, then per-document draws in id order, then
// the split shuffle — is exactly the sequence the original batch
// GenerateCorpus performed, so streaming and batch generation are
// byte-identical (the determinism golden tests pin this).
class Generator {
 public:
  explicit Generator(const GeneratorOptions& options)
      : options_(options),
        rng_(options.seed),
        vocab_(options.shared_vocab ? options.shared_vocab
                                    : std::make_shared<Vocabulary>()) {
    topic_model_ = std::make_unique<TopicModel>(
        vocab_.get(), kNumBackgroundTopics, kWordsPerTopic, &rng_);
    BuildSubtopics();
    BuildAnchorTable();
  }

  const std::shared_ptr<Vocabulary>& shared_vocab() const { return vocab_; }
  size_t num_documents() const { return options_.num_documents; }
  size_t num_generated() const { return next_id_; }

  /// Emits the next document (ids sequential from 0). Returns false once
  /// options.num_documents documents have been generated.
  bool Next(Document* doc, DocAnnotations* ann);

  /// Split assignment over the generated ids; call after the last Next().
  CorpusSplits MakeSplits();

 private:
  // --- setup ------------------------------------------------------------
  void BuildSubtopics();
  void BuildAnchorTable();

  // --- entity surface forms ----------------------------------------------
  std::string RandomPerson();
  std::string RandomLocation();
  std::string RandomOrganization();
  std::string RandomDisease();
  std::string RandomCharge();
  std::string RandomCareer();
  std::string RandomElection();
  std::string RandomTemporal();
  std::string RandomEntityValue(EntityType type, RelationId relation,
                                size_t subtopic);

  // --- sentence assembly --------------------------------------------------
  // Appends interned tokens of a space-separated phrase; returns [begin,end).
  std::pair<uint32_t, uint32_t> AppendPhrase(Sentence& s,
                                             const std::string& phrase);
  void AppendTopicalWords(Sentence& s, const Topic& topic, int count);
  Sentence FillerSentence(const Topic& topic);
  // A sentence holding a gold relation tuple; records mentions + tuple.
  Sentence TupleSentence(RelationId relation, size_t subtopic,
                         const Topic& topic, uint32_t sentence_index,
                         DocAnnotations& ann);
  // A sentence with a single entity mention, no tuple.
  Sentence EntityOnlySentence(EntityType type, RelationId relation,
                              size_t subtopic, const Topic& topic,
                              uint32_t sentence_index, DocAnnotations& ann);
  // Both entity types joined by a neutral connector, no tuple.
  Sentence CoOccurrenceSentence(RelationId relation, size_t subtopic,
                                const Topic& topic, uint32_t sentence_index,
                                DocAnnotations& ann);

  // --- document assembly --------------------------------------------------
  void GenerateDocument(Document& doc, DocAnnotations& ann);
  void PlantRelationContent(RelationId relation, size_t subtopic,
                            bool plant_tuples, const Topic& topic,
                            Document& doc, DocAnnotations& ann);
  void MaybePlantDenseRelations(const Topic& topic, Document& doc,
                                DocAnnotations& ann);

  const Topic& AnchorTopic(const Anchor& anchor) const;

  GeneratorOptions options_;
  Rng rng_;
  std::shared_ptr<Vocabulary> vocab_;
  size_t next_id_ = 0;
  std::unique_ptr<TopicModel> topic_model_;
  // subtopics_[relation] = list of subtopic Topics (vocabulary).
  std::array<std::vector<Topic>, kNumRelations> subtopics_;
  // Subtopic prevalence within each relation.
  std::array<std::vector<double>, kNumRelations> subtopic_weights_;
  std::vector<Anchor> anchors_;
  std::vector<double> anchor_weights_;
  // Cross-topic tuple probability for dense relations (PO, PC).
  std::array<double, kNumRelations> dense_plant_prob_ = {};
  // Probability that a background doc carries an off-topic instance.
  std::array<double, kNumRelations> offtopic_plant_prob_ = {};
};

void Generator::BuildSubtopics() {
  const Lexicon& lex = GetLexicon();
  for (const RelationSpec& spec : AllRelations()) {
    const size_t rel = static_cast<size_t>(spec.id);
    for (const Lexicon::Subtopic& st : lex.subtopics[rel]) {
      subtopics_[rel].push_back(topic_model_->MakeTopicFromWords(
          spec.code + "_" + st.name, st.flavor_words,
          /*extra_synthetic=*/50, st.prevalence, &rng_));
      subtopic_weights_[rel].push_back(st.prevalence);
    }
  }
}

void Generator::BuildAnchorTable() {
  anchors_.clear();
  anchor_weights_.clear();

  // Anchor mass per relation: sparse relations get (density × scale);
  // dense relations get a fixed small anchor plus cross-topic planting that
  // tops density up to the Table 1 target.
  auto anchor_mass = [&](const RelationSpec& spec) {
    const double mult =
        options_.relation_anchor_multiplier[static_cast<size_t>(spec.id)];
    if (spec.dense) {
      return (spec.id == RelationId::kPersonCareer ? 0.040 : 0.030) *
             options_.density_scale * mult;
    }
    return spec.paper_density * options_.density_scale * mult;
  };

  double used_mass = 0.0;
  for (const RelationSpec& spec : AllRelations()) {
    const size_t rel = static_cast<size_t>(spec.id);
    const double mass = anchor_mass(spec);
    const double distractor_mass = 0.6 * mass;
    const auto& weights = subtopic_weights_[rel];
    const double weight_sum =
        std::accumulate(weights.begin(), weights.end(), 0.0);
    for (size_t st = 0; st < weights.size(); ++st) {
      const double share = weights[st] / weight_sum;
      anchors_.push_back({Anchor::Kind::kRelation, 0, spec.id, st,
                          mass * share});
      anchors_.push_back({Anchor::Kind::kDistractor, 0, spec.id, st,
                          distractor_mass * share});
    }
    used_mass += mass + distractor_mass;

    // Cross-topic planting probability for dense relations, solving
    //   target = anchor + (1 - anchor) * q   for q.
    if (spec.dense) {
      const double target = spec.paper_density * options_.density_scale;
      dense_plant_prob_[rel] =
          std::clamp((target - mass) / (1.0 - mass), 0.0, 1.0);
    } else {
      // A sliver of useful docs live off-topic (hurts keyword recall).
      offtopic_plant_prob_[rel] =
          0.08 * spec.paper_density * options_.density_scale;
    }
  }

  // Keep at least 15% background mass; when a preset (e.g. extractor
  // training) over-allocates anchors, rescale proportionally.
  constexpr double kMaxAnchorMass = 0.85;
  if (used_mass > kMaxAnchorMass) {
    const double shrink = kMaxAnchorMass / used_mass;
    for (Anchor& a : anchors_) a.weight *= shrink;
    used_mass = kMaxAnchorMass;
  }
  const double background_mass = 1.0 - used_mass;
  const auto& topic_weights = topic_model_->weights();
  const double topic_weight_sum =
      std::accumulate(topic_weights.begin(), topic_weights.end(), 0.0);
  for (size_t t = 0; t < topic_model_->NumTopics(); ++t) {
    anchors_.push_back({Anchor::Kind::kBackground, t,
                        RelationId::kPersonOrganization, 0,
                        background_mass * topic_weights[t] /
                            topic_weight_sum});
  }

  anchor_weights_.reserve(anchors_.size());
  for (const Anchor& a : anchors_) anchor_weights_.push_back(a.weight);
}

std::string Generator::RandomPerson() {
  const Lexicon& lex = GetLexicon();
  return lex.person_first_names[rng_.NextBounded(
             lex.person_first_names.size())] +
         " " +
         lex.person_last_names[rng_.NextBounded(lex.person_last_names.size())];
}

std::string Generator::RandomLocation() {
  const Lexicon& lex = GetLexicon();
  return lex.locations[rng_.NextBounded(lex.locations.size())];
}

std::string Generator::RandomOrganization() {
  const Lexicon& lex = GetLexicon();
  if (rng_.NextBool(0.2)) {
    return "university of " + RandomLocation();
  }
  return lex.org_stems[rng_.NextBounded(lex.org_stems.size())] + " " +
         lex.org_suffixes[rng_.NextBounded(lex.org_suffixes.size())];
}

std::string Generator::RandomDisease() {
  const Lexicon& lex = GetLexicon();
  return lex.diseases[rng_.NextBounded(lex.diseases.size())];
}

std::string Generator::RandomCharge() {
  const Lexicon& lex = GetLexicon();
  return lex.charges[rng_.NextBounded(lex.charges.size())];
}

std::string Generator::RandomCareer() {
  const Lexicon& lex = GetLexicon();
  return lex.careers[rng_.NextBounded(lex.careers.size())];
}

std::string Generator::RandomElection() {
  const Lexicon& lex = GetLexicon();
  return lex.election_kinds[rng_.NextBounded(lex.election_kinds.size())];
}

std::string Generator::RandomTemporal() {
  const Lexicon& lex = GetLexicon();
  const int year = 1987 + static_cast<int>(rng_.NextBounded(21));
  return lex.months[rng_.NextBounded(lex.months.size())] + " " +
         StrFormat("%d", year);
}

std::string Generator::RandomEntityValue(EntityType type, RelationId relation,
                                         size_t subtopic) {
  const Lexicon& lex = GetLexicon();
  const size_t rel = static_cast<size_t>(relation);

  // The relation's topical attribute draws from the subtopic's own entity
  // subset, giving each subtopic a characteristic value vocabulary.
  if (type == lex.topical_attribute[rel] &&
      subtopic < lex.subtopics[rel].size()) {
    const auto& terms = lex.subtopics[rel][subtopic].entity_terms;
    if (!terms.empty()) {
      if (type == EntityType::kOrganization) {
        // PO subtopics carry organization-name suffixes.
        if (rng_.NextBool(0.15) &&
            lex.subtopics[rel][subtopic].name == "institutional") {
          return "university of " + RandomLocation();
        }
        return lex.org_stems[rng_.NextBounded(lex.org_stems.size())] + " " +
               terms[rng_.NextBounded(terms.size())];
      }
      return terms[rng_.NextBounded(terms.size())];
    }
  }

  switch (type) {
    case EntityType::kPerson:
      return RandomPerson();
    case EntityType::kLocation:
      return RandomLocation();
    case EntityType::kOrganization:
      return RandomOrganization();
    case EntityType::kDisease:
      return RandomDisease();
    case EntityType::kCharge:
      return RandomCharge();
    case EntityType::kCareer:
      return RandomCareer();
    case EntityType::kElection:
      return RandomElection();
    case EntityType::kTemporal:
      return RandomTemporal();
    case EntityType::kNaturalDisaster:
    case EntityType::kManMadeDisaster: {
      // Fallback for out-of-range subtopics: any term of the relation.
      const auto& subtopics = lex.subtopics[rel];
      const auto& st = subtopics[rng_.NextBounded(subtopics.size())];
      return st.entity_terms[rng_.NextBounded(st.entity_terms.size())];
    }
    case EntityType::kNone:
      break;
  }
  return "unknown";
}

std::pair<uint32_t, uint32_t> Generator::AppendPhrase(
    Sentence& s, const std::string& phrase) {
  const uint32_t begin = static_cast<uint32_t>(s.tokens.size());
  for (const auto& piece : SplitString(phrase, " ")) {
    s.tokens.push_back(vocab_->Intern(piece));
  }
  return {begin, static_cast<uint32_t>(s.tokens.size())};
}

void Generator::AppendTopicalWords(Sentence& s, const Topic& topic,
                                   int count) {
  const Lexicon& lex = GetLexicon();
  Vocabulary& vocab = *vocab_;
  for (int i = 0; i < count; ++i) {
    const double roll = rng_.NextDouble();
    if (roll < 0.38) {
      const auto rank = rng_.NextZipf(lex.common_words.size(), 1.05);
      s.tokens.push_back(vocab.Intern(lex.common_words[rank]));
    } else if (roll < 0.80) {
      s.tokens.push_back(topic_model_->SampleWord(topic, &rng_));
    } else {
      const auto& noise =
          topic_model_->topic(topic_model_->SampleTopic(&rng_));
      s.tokens.push_back(topic_model_->SampleWord(noise, &rng_));
    }
  }
}

Sentence Generator::FillerSentence(const Topic& topic) {
  Sentence s;
  const int len = static_cast<int>(
      rng_.NextInt(kMinTokensPerSentence, kMaxTokensPerSentence));
  AppendTopicalWords(s, topic, len);
  // Relation trigger words are ordinary verbs ("hit", "joined", "went to")
  // that occur broadly in news text, so a trigger alone is a weak
  // usefulness cue — only its conjunction with entity context matters.
  if (rng_.NextBool(0.18)) {
    const Lexicon& lex = GetLexicon();
    const size_t rel = rng_.NextBounded(kNumRelations);
    const auto& triggers = lex.triggers[rel];
    const std::string& t = triggers[rng_.NextBounded(triggers.size())];
    AppendPhrase(s, t);
  }
  return s;
}

Sentence Generator::TupleSentence(RelationId relation, size_t subtopic,
                                  const Topic& topic, uint32_t sentence_index,
                                  DocAnnotations& ann) {
  const Lexicon& lex = GetLexicon();
  const RelationSpec& spec = GetRelation(relation);
  Sentence s;
  AppendTopicalWords(s, topic, static_cast<int>(rng_.NextInt(1, 4)));

  const std::string a1 = RandomEntityValue(spec.attr1, relation, subtopic);
  const std::string a2 = RandomEntityValue(spec.attr2, relation, subtopic);
  const auto& triggers = lex.triggers[static_cast<size_t>(relation)];
  const std::string& trigger = triggers[rng_.NextBounded(triggers.size())];

  const auto [b1, e1] = AppendPhrase(s, a1);
  AppendPhrase(s, trigger);
  const auto [b2, e2] = AppendPhrase(s, a2);
  AppendTopicalWords(s, topic, static_cast<int>(rng_.NextInt(1, 4)));

  ann.mentions.push_back({sentence_index, b1, e1, spec.attr1, a1});
  ann.mentions.push_back({sentence_index, b2, e2, spec.attr2, a2});
  ann.tuples.push_back({relation, a1, a2, sentence_index});
  return s;
}

Sentence Generator::EntityOnlySentence(EntityType type, RelationId relation,
                                       size_t subtopic, const Topic& topic,
                                       uint32_t sentence_index,
                                       DocAnnotations& ann) {
  Sentence s;
  AppendTopicalWords(s, topic, static_cast<int>(rng_.NextInt(2, 5)));
  const std::string value = RandomEntityValue(type, relation, subtopic);
  const auto [b, e] = AppendPhrase(s, value);
  AppendTopicalWords(s, topic, static_cast<int>(rng_.NextInt(2, 5)));
  ann.mentions.push_back({sentence_index, b, e, type, value});
  return s;
}

Sentence Generator::CoOccurrenceSentence(RelationId relation, size_t subtopic,
                                         const Topic& topic,
                                         uint32_t sentence_index,
                                         DocAnnotations& ann) {
  const RelationSpec& spec = GetRelation(relation);
  Sentence s;
  AppendTopicalWords(s, topic, static_cast<int>(rng_.NextInt(1, 3)));
  const std::string a1 = RandomEntityValue(spec.attr1, relation, subtopic);
  const std::string a2 = RandomEntityValue(spec.attr2, relation, subtopic);
  const auto& connectors = NeutralConnectors();
  const auto [b1, e1] = AppendPhrase(s, a1);
  AppendPhrase(s, connectors[rng_.NextBounded(connectors.size())]);
  // Unrelated entity pairs sit farther apart than related ones; the padding
  // also keeps distance-based extractors (DO) from firing on negatives.
  AppendTopicalWords(s, topic, static_cast<int>(rng_.NextInt(4, 8)));
  const auto [b2, e2] = AppendPhrase(s, a2);
  AppendTopicalWords(s, topic, static_cast<int>(rng_.NextInt(1, 3)));
  ann.mentions.push_back({sentence_index, b1, e1, spec.attr1, a1});
  ann.mentions.push_back({sentence_index, b2, e2, spec.attr2, a2});
  return s;
}

void Generator::PlantRelationContent(RelationId relation, size_t subtopic,
                                     bool plant_tuples, const Topic& topic,
                                     Document& doc, DocAnnotations& ann) {
  const RelationSpec& spec = GetRelation(relation);
  auto insert_at_random = [&](Sentence&& s) {
    // Sentence index recorded by callers must match the final position, so
    // we append and fix the index inside the callers via doc.sentences.size.
    doc.sentences.push_back(std::move(s));
  };

  if (plant_tuples) {
    int instances = 1;
    if (rng_.NextBool(0.4)) ++instances;
    if (rng_.NextBool(0.2)) ++instances;
    for (int i = 0; i < instances; ++i) {
      const uint32_t idx = static_cast<uint32_t>(doc.sentences.size());
      insert_at_random(TupleSentence(relation, subtopic, topic, idx, ann));
    }
  }
  // Hard negatives: lone entities and neutral co-occurrences.
  if (rng_.NextBool(0.55)) {
    const uint32_t idx = static_cast<uint32_t>(doc.sentences.size());
    const EntityType type = rng_.NextBool(0.5) ? spec.attr1 : spec.attr2;
    insert_at_random(
        EntityOnlySentence(type, relation, subtopic, topic, idx, ann));
  }
  if (rng_.NextBool(plant_tuples ? 0.25 : 0.45)) {
    const uint32_t idx = static_cast<uint32_t>(doc.sentences.size());
    insert_at_random(CoOccurrenceSentence(relation, subtopic, topic, idx,
                                          ann));
  }
}

void Generator::MaybePlantDenseRelations(const Topic& topic, Document& doc,
                                         DocAnnotations& ann) {
  for (RelationId rel :
       {RelationId::kPersonCareer, RelationId::kPersonOrganization}) {
    const size_t idx = static_cast<size_t>(rel);
    if (dense_plant_prob_[idx] > 0.0 &&
        rng_.NextBool(dense_plant_prob_[idx])) {
      // Dense relations appear across all topics; the instance still uses a
      // prevalence-weighted subtopic's entity vocabulary.
      const size_t st = rng_.NextCategorical(subtopic_weights_[idx]);
      PlantRelationContent(rel, st, /*plant_tuples=*/true, topic, doc, ann);
    }
  }
}

const Topic& Generator::AnchorTopic(const Anchor& anchor) const {
  if (anchor.kind == Anchor::Kind::kBackground) {
    return topic_model_->topic(anchor.background_topic);
  }
  return subtopics_[static_cast<size_t>(anchor.relation)][anchor.subtopic];
}

void Generator::GenerateDocument(Document& doc, DocAnnotations& ann) {
  const Anchor& anchor = anchors_[rng_.NextCategorical(anchor_weights_)];
  const Topic& topic = AnchorTopic(anchor);

  const int num_sentences = static_cast<int>(
      rng_.NextInt(kMinSentences, kMaxSentences));

  // Base filler body.
  for (int i = 0; i < num_sentences; ++i) {
    doc.sentences.push_back(FillerSentence(topic));
  }

  // Scatter temporal expressions (needed as DO negatives, and generally
  // realistic for news): ~35% of documents carry a date phrase somewhere.
  if (rng_.NextBool(0.35)) {
    const uint32_t idx = static_cast<uint32_t>(doc.sentences.size());
    Sentence s;
    AppendTopicalWords(s, topic, static_cast<int>(rng_.NextInt(2, 6)));
    const std::string when = RandomTemporal();
    AppendPhrase(s, "in");
    const auto [b, e] = AppendPhrase(s, when);
    AppendTopicalWords(s, topic, static_cast<int>(rng_.NextInt(1, 4)));
    ann.mentions.push_back({idx, b, e, EntityType::kTemporal, when});
    doc.sentences.push_back(std::move(s));
  }

  // Scatter person mentions broadly (people appear all over a news corpus).
  if (rng_.NextBool(0.25)) {
    const uint32_t idx = static_cast<uint32_t>(doc.sentences.size());
    doc.sentences.push_back(EntityOnlySentence(
        EntityType::kPerson, RelationId::kPersonCareer, 0, topic, idx, ann));
  }
  // Locations likewise: news articles name places constantly, so a location
  // mention alone says nothing about disaster usefulness.
  if (rng_.NextBool(0.30)) {
    const uint32_t idx = static_cast<uint32_t>(doc.sentences.size());
    doc.sentences.push_back(EntityOnlySentence(
        EntityType::kLocation, RelationId::kNaturalDisaster, 0, topic, idx,
        ann));
  }
  // Topical entity terms occur outside relation contexts too (a "professor"
  // mentioned with no career statement, a disease in a research story, an
  // organization with no affiliation), so the presence of a single keyword
  // is a weak usefulness signal — as in real corpora.
  {
    const Lexicon& lex = GetLexicon();
    for (const RelationSpec& spec : AllRelations()) {
      const size_t rel = static_cast<size_t>(spec.id);
      // Organizations get less lone-mention noise: the suffix-pattern NER
      // plus HMM person tagging makes stray orgs a false-positive hazard.
      const double noise_prob =
          spec.id == RelationId::kPersonCareer      ? 0.08
          : spec.id == RelationId::kPersonOrganization ? 0.02
                                                       : 0.012;
      if (!rng_.NextBool(noise_prob)) continue;
      const size_t st = rng_.NextCategorical(subtopic_weights_[rel]);
      const uint32_t idx = static_cast<uint32_t>(doc.sentences.size());
      doc.sentences.push_back(EntityOnlySentence(
          lex.topical_attribute[rel], spec.id, st, topic, idx, ann));
    }
  }

  switch (anchor.kind) {
    case Anchor::Kind::kRelation:
      PlantRelationContent(anchor.relation, anchor.subtopic,
                           /*plant_tuples=*/true, topic, doc, ann);
      break;
    case Anchor::Kind::kDistractor:
      PlantRelationContent(anchor.relation, anchor.subtopic,
                           /*plant_tuples=*/false, topic, doc, ann);
      break;
    case Anchor::Kind::kBackground:
      // Rare off-topic instances of sparse relations.
      for (const RelationSpec& spec : AllRelations()) {
        const size_t rel = static_cast<size_t>(spec.id);
        if (offtopic_plant_prob_[rel] > 0.0 &&
            rng_.NextBool(offtopic_plant_prob_[rel])) {
          const size_t st =
              rng_.NextBounded(subtopics_[rel].size());
          const uint32_t idx = static_cast<uint32_t>(doc.sentences.size());
          doc.sentences.push_back(
              TupleSentence(spec.id, st, topic, idx, ann));
        }
      }
      break;
  }

  MaybePlantDenseRelations(topic, doc, ann);

  // Shuffling sentence order would invalidate recorded sentence indices;
  // instead we lightly rotate the document so planted content is not always
  // at the tail. Rotation preserves relative order; remap indices.
  const size_t n = doc.sentences.size();
  const size_t shift = rng_.NextBounded(n);
  if (shift > 0) {
    std::rotate(doc.sentences.begin(),
                doc.sentences.begin() + static_cast<long>(shift),
                doc.sentences.end());
    auto remap = [&](uint32_t old_idx) {
      return static_cast<uint32_t>((old_idx + n - shift) % n);
    };
    for (auto& m : ann.mentions) m.sentence = remap(m.sentence);
    for (auto& t : ann.tuples) t.sentence = remap(t.sentence);
  }

  doc.id = static_cast<DocId>(next_id_++);
}

bool Generator::Next(Document* doc, DocAnnotations* ann) {
  if (next_id_ >= options_.num_documents) return false;
  doc->sentences.clear();
  ann->mentions.clear();
  ann->tuples.clear();
  GenerateDocument(*doc, *ann);
  return true;
}

CorpusSplits Generator::MakeSplits() {
  std::vector<DocId> ids(next_id_);
  std::iota(ids.begin(), ids.end(), 0);
  rng_.Shuffle(ids);
  const double total = static_cast<double>(next_id_);
  const size_t n_train = static_cast<size_t>(options_.train_fraction * total);
  const size_t n_dev = static_cast<size_t>(options_.dev_fraction * total);
  CorpusSplits splits;
  const auto train_end = ids.begin() + static_cast<std::ptrdiff_t>(n_train);
  const auto dev_end = train_end + static_cast<std::ptrdiff_t>(n_dev);
  splits.train.assign(ids.begin(), train_end);
  splits.dev.assign(train_end, dev_end);
  splits.test.assign(dev_end, ids.end());
  return splits;
}

}  // namespace

class StreamingCorpusGenerator::Impl {
 public:
  explicit Impl(const GeneratorOptions& options) : gen(options) {}
  Generator gen;
};

StreamingCorpusGenerator::StreamingCorpusGenerator(
    const GeneratorOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

StreamingCorpusGenerator::~StreamingCorpusGenerator() = default;
StreamingCorpusGenerator::StreamingCorpusGenerator(
    StreamingCorpusGenerator&&) noexcept = default;
StreamingCorpusGenerator& StreamingCorpusGenerator::operator=(
    StreamingCorpusGenerator&&) noexcept = default;

const std::shared_ptr<Vocabulary>& StreamingCorpusGenerator::shared_vocab()
    const {
  return impl_->gen.shared_vocab();
}

size_t StreamingCorpusGenerator::num_documents() const {
  return impl_->gen.num_documents();
}

size_t StreamingCorpusGenerator::num_generated() const {
  return impl_->gen.num_generated();
}

bool StreamingCorpusGenerator::Next(Document* doc, DocAnnotations* ann) {
  return impl_->gen.Next(doc, ann);
}

CorpusSplits StreamingCorpusGenerator::MakeSplits() {
  IE_CHECK(impl_->gen.num_generated() == impl_->gen.num_documents());
  return impl_->gen.MakeSplits();
}

GeneratorOptions GeneratorOptions::ForExtractorTraining(RelationId relation,
                                                        size_t num_documents,
                                                        uint64_t seed) {
  GeneratorOptions options;
  options.num_documents = num_documents;
  options.seed = seed;
  // Make the target relation's subtopics dominate the anchor table; all
  // generated docs go to the train split.
  const RelationSpec& spec = GetRelation(relation);
  const double base = spec.dense ? 0.04 : spec.paper_density * 1.15;
  options.relation_anchor_multiplier[static_cast<size_t>(relation)] =
      0.35 / base;
  options.train_fraction = 1.0;
  options.dev_fraction = 0.0;
  return options;
}

Corpus GenerateCorpus(const GeneratorOptions& options) {
  StreamingCorpusGenerator gen(options);
  Corpus corpus(gen.shared_vocab());
  Document doc;
  DocAnnotations ann;
  while (gen.Next(&doc, &ann)) {
    corpus.Add(std::move(doc), std::move(ann));
  }
  corpus.mutable_splits() = gen.MakeSplits();
  return corpus;
}

}  // namespace ie
