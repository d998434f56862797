// CompactIndex correctness: the byte-identity contract with the test
// oracle (index_oracle.h, DESIGN.md §13) — same hits, same float bits,
// same order — plus the build-protocol errors and the block/skip machinery
// at multi-block scale.
#include "index/compact_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index_oracle.h"
#include "pipeline/pipeline.h"
#include "test_util.h"
#include "text/tokenizer.h"

namespace ie {
namespace {

// Bit-level hit comparison: score equality is exact, not approximate —
// the whole point of the contract.
void ExpectSameHits(const std::vector<SearchHit>& expected,
                    const std::vector<SearchHit>& actual,
                    const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].doc, actual[i].doc) << label << " hit " << i;
    uint32_t expected_bits = 0;
    uint32_t actual_bits = 0;
    std::memcpy(&expected_bits, &expected[i].score, sizeof(expected_bits));
    std::memcpy(&actual_bits, &actual[i].score, sizeof(actual_bits));
    EXPECT_EQ(expected_bits, actual_bits)
        << label << " hit " << i << ": scores " << expected[i].score
        << " vs " << actual[i].score << " differ in bits";
  }
}

/// The oracle over the documents BuildPoolIndex indexes.
test::InvertedIndex BuildOraclePoolIndex(const Corpus& corpus,
                                         const std::vector<DocId>& pool) {
  test::InvertedIndex oracle;
  for (DocId id : pool) EXPECT_TRUE(oracle.Add(corpus.doc(id)).ok());
  return oracle;
}

class CompactIndexTest : public ::testing::Test {
 protected:
  void AddBoth(DocId id, const std::string& text) {
    const Document doc = TextToDocument(id, text, vocab_);
    ASSERT_TRUE(inverted_.Add(doc).ok());
    ASSERT_TRUE(compact_.Add(doc).ok());
  }
  std::vector<TokenId> Terms(const std::string& words) {
    std::vector<TokenId> ids;
    for (const auto& w : TokenizeWords(words)) ids.push_back(vocab_.Intern(w));
    return ids;
  }
  void CheckQuery(const std::string& words, size_t k) {
    ExpectSameHits(inverted_.Search(Terms(words), k),
                   compact_.Search(Terms(words), k),
                   "query '" + words + "' k=" + std::to_string(k));
  }

  Vocabulary vocab_;
  test::InvertedIndex inverted_;
  CompactIndex compact_;
};

TEST_F(CompactIndexTest, EmptyIndexReturnsNothing) {
  compact_.Finalize();
  EXPECT_TRUE(compact_.Search({0, 1}, 10).empty());
  EXPECT_TRUE(compact_.Search({}, 10).empty());
  EXPECT_EQ(compact_.NumDocs(), 0u);
  EXPECT_EQ(compact_.NumPostings(), 0u);
}

TEST_F(CompactIndexTest, BuildProtocolEnforced) {
  const Document doc = TextToDocument(0, "a b c.", vocab_);
  ASSERT_TRUE(compact_.Add(doc).ok());
  EXPECT_TRUE(compact_.Add(doc).IsInvalidArgument());  // duplicate id
  EXPECT_FALSE(compact_.finalized());
  compact_.Finalize();
  EXPECT_TRUE(compact_.finalized());
  const Document late = TextToDocument(1, "d.", vocab_);
  EXPECT_TRUE(compact_.Add(late).IsFailedPrecondition());
  compact_.Finalize();  // idempotent
  EXPECT_EQ(compact_.NumDocs(), 1u);
}

TEST_F(CompactIndexTest, HandcraftedEquivalence) {
  AddBoth(0, "lava flowed from the volcano.");
  AddBoth(1, "lava only here.");
  AddBoth(2, "volcano only here.");
  AddBoth(3, "an entirely unrelated report about elections.");
  compact_.Finalize();
  CheckQuery("lava volcano", 10);
  CheckQuery("lava", 10);
  CheckQuery("volcano lava here", 2);
  CheckQuery("elections", 1);
}

TEST_F(CompactIndexTest, EdgeCasesMatchInvertedIndex) {
  AddBoth(0, "known words here.");
  compact_.Finalize();
  // k = 0, empty query, all-unknown terms, k > NumDocs.
  EXPECT_TRUE(compact_.Search(Terms("known"), 0).empty());
  EXPECT_TRUE(compact_.Search({}, 10).empty());
  EXPECT_TRUE(compact_.Search({999999u, 888888u}, 10).empty());
  CheckQuery("known", 50);
  // Single-doc corpus: avg_len == len, denominator exercises the b-term.
  const auto hits = compact_.Search(Terms("known"), 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_TRUE(std::isfinite(hits[0].score));
  EXPECT_GT(hits[0].score, 0.0f);
}

TEST_F(CompactIndexTest, DuplicateQueryTermsDedupedInBothBackends) {
  AddBoth(0, "storm storm hit the coast.");
  AddBoth(1, "storm was mentioned once here.");
  AddBoth(2, "calm day at the coast.");
  compact_.Finalize();
  const auto once_inv = inverted_.Search(Terms("storm"), 10);
  const auto twice_inv = inverted_.Search(Terms("storm storm"), 10);
  ExpectSameHits(once_inv, twice_inv, "inverted {t,t} vs {t}");
  const auto twice_cmp = compact_.Search(Terms("storm storm"), 10);
  ExpectSameHits(once_inv, twice_cmp, "compact {t,t} vs inverted {t}");
}

TEST_F(CompactIndexTest, DocFreqAndCountsMatch) {
  AddBoth(0, "storm at sea. storm again.");
  AddBoth(1, "calm sea.");
  compact_.Finalize();
  EXPECT_EQ(compact_.NumDocs(), inverted_.NumDocs());
  EXPECT_EQ(compact_.NumPostings(), inverted_.NumPostings());
  for (const char* word : {"storm", "sea", "calm"}) {
    EXPECT_EQ(compact_.DocFreq(vocab_.Lookup(word)),
              inverted_.DocFreq(vocab_.Lookup(word)))
        << word;
  }
  EXPECT_EQ(compact_.DocFreq(999999u), 0u);
}

TEST_F(CompactIndexTest, MultiBlockPostingListsWithPruning) {
  // > 3 blocks for "shared"; "rare" appears in a handful of spread-out
  // docs, so conjunctive-ish queries exercise the block-skip path and
  // small k exercises the WAND threshold.
  for (DocId id = 0; id < 400; ++id) {
    std::string text = "shared body text number" + std::to_string(id % 17);
    if (id % 61 == 0) text += " rare";
    if (id % 7 == 0) text += " sevens sevens";
    text += ".";
    AddBoth(id, text);
  }
  compact_.Finalize();
  for (size_t k : {1u, 3u, 10u, 100u, 1000u}) {
    CheckQuery("rare", k);
    CheckQuery("shared rare", k);
    CheckQuery("rare sevens", k);
    CheckQuery("shared sevens number3", k);
  }
}

TEST_F(CompactIndexTest, RandomizedEquivalence200QueriesPerSeed) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    Vocabulary vocab;
    test::InvertedIndex inverted;
    CompactIndex compact;
    Rng rng(seed);
    constexpr uint32_t kVocabSize = 300;

    const size_t num_docs = 200 + rng.NextBounded(200);
    for (DocId id = 0; id < num_docs; ++id) {
      Document doc;
      doc.id = id;
      const size_t num_sentences = 1 + rng.NextBounded(4);
      for (size_t s = 0; s < num_sentences; ++s) {
        Sentence sentence;
        const size_t len = 3 + rng.NextBounded(20);
        for (size_t t = 0; t < len; ++t) {
          // Skewed draw so some terms are frequent (multi-block) and some
          // rare (high idf).
          const auto token = static_cast<TokenId>(
              rng.NextZipf(kVocabSize, 1.1));
          sentence.tokens.push_back(token);
        }
        doc.sentences.push_back(std::move(sentence));
      }
      ASSERT_TRUE(inverted.Add(doc).ok());
      ASSERT_TRUE(compact.Add(doc).ok());
    }
    compact.Finalize();
    EXPECT_EQ(compact.NumPostings(), inverted.NumPostings());

    for (int q = 0; q < 200; ++q) {
      std::vector<TokenId> terms;
      const size_t num_terms = 1 + rng.NextBounded(5);
      for (size_t t = 0; t < num_terms; ++t) {
        // 320 > vocab size: some terms are unknown; duplicates happen
        // naturally and must be deduped identically by both backends.
        terms.push_back(static_cast<TokenId>(rng.NextBounded(320)));
      }
      const size_t k_choices[] = {1, 5, 10, 50, 5000};
      const size_t k = k_choices[rng.NextBounded(5)];
      ExpectSameHits(inverted.Search(terms, k), compact.Search(terms, k),
                     "seed " + std::to_string(seed) + " query " +
                         std::to_string(q));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST_F(CompactIndexTest, ParallelFinalizeIsByteIdenticalToSerial) {
  // Build the same randomized corpus into four indexes and finalize with
  // 1, 2, 4, and 16 threads: every observable — compressed byte count,
  // doc freqs, and bit-level search results — must match the serial build.
  Rng rng(77);
  constexpr uint32_t kVocabSize = 400;
  std::vector<Document> docs;
  for (DocId id = 0; id < 300; ++id) {
    Document doc;
    doc.id = id;
    Sentence sentence;
    const size_t len = 4 + rng.NextBounded(24);
    for (size_t t = 0; t < len; ++t) {
      sentence.tokens.push_back(
          static_cast<TokenId>(rng.NextZipf(kVocabSize, 1.1)));
    }
    doc.sentences.push_back(std::move(sentence));
    docs.push_back(std::move(doc));
  }

  CompactIndex serial;
  for (const auto& doc : docs) ASSERT_TRUE(serial.Add(doc).ok());
  serial.Finalize(1);

  for (size_t threads : {2u, 4u, 16u}) {
    CompactIndex parallel;
    for (const auto& doc : docs) ASSERT_TRUE(parallel.Add(doc).ok());
    parallel.Finalize(threads);

    const std::string label = "threads=" + std::to_string(threads);
    EXPECT_EQ(parallel.NumDocs(), serial.NumDocs()) << label;
    EXPECT_EQ(parallel.NumPostings(), serial.NumPostings()) << label;
    EXPECT_EQ(parallel.PostingsBytes(), serial.PostingsBytes()) << label;
    for (TokenId term = 0; term < kVocabSize; ++term) {
      ASSERT_EQ(parallel.DocFreq(term), serial.DocFreq(term))
          << label << " term " << term;
    }
    Rng qrng(threads);
    for (int q = 0; q < 100; ++q) {
      std::vector<TokenId> terms;
      const size_t num_terms = 1 + qrng.NextBounded(4);
      for (size_t t = 0; t < num_terms; ++t) {
        terms.push_back(static_cast<TokenId>(qrng.NextBounded(kVocabSize)));
      }
      const size_t k = 1 + qrng.NextBounded(50);
      ExpectSameHits(serial.Search(terms, k), parallel.Search(terms, k),
                     label + " query " + std::to_string(q));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST_F(CompactIndexTest, SharedCorpusPoolEquivalenceAndCompression) {
  const Corpus& corpus = test::SharedCorpus();
  const test::InvertedIndex inverted =
      BuildOraclePoolIndex(corpus, corpus.splits().test);
  const CompactIndex& compact = test::SharedIndex();
  EXPECT_EQ(compact.NumDocs(), inverted.NumDocs());
  EXPECT_EQ(compact.NumPostings(), inverted.NumPostings());

  // Realistic word queries through the shared SearchText path.
  for (const char* query :
       {"courtroom trial fraud prosecutor", "volcano", "storm damage",
        "university of", "election campaign vote", "disease outbreak",
        "charged with fraud", "the", "zzz-not-a-word"}) {
    for (size_t k : {1u, 10u, 200u}) {
      ExpectSameHits(inverted.SearchText(query, corpus.vocab(), k),
                     compact.SearchText(query, corpus.vocab(), k),
                     std::string("shared corpus query '") + query + "'");
    }
  }

  // Compressed postings must be smaller than the uncompressed reference
  // even on this tiny pool, where per-term metadata is at its least
  // amortized (singleton terms dominate a 3k-doc vocabulary). The >= 4x
  // acceptance ratio is measured where it matters — the 1M-doc bench
  // (bench/bench_index.cc) — and recorded in BENCH_index.json.
  EXPECT_LT(compact.PostingsBytes(), inverted.PostingsBytes());
}

// A pool that names a document more than once indexes it once, as Run()
// processes it once; CompactIndex::Add rejects a second Add of one id.
TEST(BuildPoolIndexTest, DuplicatedPoolIdsIndexTheDistinctPool) {
  const Corpus& corpus = test::SharedCorpus();
  const std::vector<DocId>& distinct = corpus.splits().test;
  std::vector<DocId> pool = distinct;
  pool.insert(pool.end(), distinct.begin(), distinct.begin() + 10);
  pool.insert(pool.begin(), distinct.back());
  const CompactIndex expected = BuildPoolIndex(corpus, distinct);
  const CompactIndex actual = BuildPoolIndex(corpus, pool);
  EXPECT_EQ(actual.NumDocs(), distinct.size());
  EXPECT_EQ(actual.NumPostings(), expected.NumPostings());
  for (const char* query : {"courtroom trial fraud prosecutor", "volcano",
                            "storm damage", "charged with fraud"}) {
    ExpectSameHits(expected.SearchText(query, corpus.vocab(), 50),
                   actual.SearchText(query, corpus.vocab(), 50),
                   std::string("duplicated pool query '") + query + "'");
  }
}

// --- pipeline-level equivalence: the PR 6 golden-hash matrix -------------
//
// Runs the full adaptive pipeline over the golden matrix cells with the
// index-hungry configuration (CQS sampling + search-interface access) and
// asserts BuildPoolIndex's product backend and the oracle produce
// identical runs — processing order, verdicts, update positions, final
// weights, simulated cost.

void ExpectSameRun(const PipelineResult& a, const PipelineResult& b) {
  EXPECT_EQ(a.processing_order, b.processing_order);
  EXPECT_EQ(a.processed_useful, b.processed_useful);
  EXPECT_EQ(a.update_positions, b.update_positions);
  EXPECT_EQ(a.warmup_documents, b.warmup_documents);
  ASSERT_EQ(a.final_weights.size(), b.final_weights.size());
  for (size_t i = 0; i < a.final_weights.size(); ++i) {
    EXPECT_EQ(a.final_weights[i].first, b.final_weights[i].first);
    EXPECT_EQ(a.final_weights[i].second, b.final_weights[i].second);
  }
  EXPECT_EQ(a.extraction_seconds, b.extraction_seconds);
}

struct MatrixCase {
  RankerKind ranker;
  uint64_t seed;
};

class BackendMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(BackendMatrixTest, GoldenMatrixCellBackendInvariant) {
  const MatrixCase param = GetParam();
  SharedContext context = test::MakeSharedContext(RelationId::kPersonCharge);
  const std::vector<std::string> queries = {"courtroom", "trial", "fraud",
                                            "prosecutor"};
  context.cqs_queries = &queries;
  PipelineConfig config = PipelineConfig::Defaults(
      param.ranker, SamplerKind::kCQS, UpdateKind::kModC, param.seed);
  config.sample_size = 120;
  config.access = AccessMode::kSearchInterface;

  const PipelineResult with_product =
      AdaptiveExtractionPipeline::Run(context, config);

  const test::InvertedIndex oracle = BuildOraclePoolIndex(
      test::SharedCorpus(), test::SharedCorpus().splits().test);
  context.index = &oracle;
  const PipelineResult with_oracle =
      AdaptiveExtractionPipeline::Run(context, config);

  ExpectSameRun(with_oracle, with_product);
}

INSTANTIATE_TEST_SUITE_P(
    RankersAndSeeds, BackendMatrixTest,
    ::testing::Values(MatrixCase{RankerKind::kRSVMIE, 1},
                      MatrixCase{RankerKind::kRSVMIE, 7},
                      MatrixCase{RankerKind::kBAggIE, 1},
                      MatrixCase{RankerKind::kBAggIE, 7}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return std::string(info.param.ranker == RankerKind::kRSVMIE ? "RSVM"
                                                                  : "BAgg") +
             "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace ie
