// Full-pipeline golden-hash determinism test (DESIGN.md §12). Each run is
// canonically serialized — processing order, per-document usefulness,
// update positions, the extracted tuples of every processed document, the
// final model weights, and the simulated extraction cost, all floats
// rendered through ie::FormatDouble so the bytes are locale-independent
// and shortest-round-trip — and folded into an FNV-1a digest.
//
// Two layers of protection:
//   1. Cross-thread byte-stability (strict, always on): for a fixed
//      (ranker, detector, seed) the digest must be identical at
//      extract_threads 1, 2, and 8. Any divergence means speculation or a
//      hash-order dependence leaked into results.
//   2. Pinned golden digests: the digest must equal the recorded
//      constant, catching silent behavior drift from refactors that
//      "look" equivalent (map-iteration reorderings, float reassociation,
//      format changes). The pins assume one floating environment; on a
//      toolchain with a different libm set IE_GOLDEN_SKIP_PIN=1 to keep
//      layer 1 while skipping layer 2, and re-pin deliberately.
//
// The adaptive matrix pins Mod-C, Top-K and Feat-S on PH; the Top-K and
// Feat-S cases must fire at least one update, so their pins cover the
// detector's statistic. The search-access matrix pins PH and PC under
// Wind-F and Mod-C, once with live extraction, which must reproduce its
// cached-outcome twin. The baselines (FC, A-FC) have no thread axis:
// their layer 1 is a repeat of the same run, and layer 2 pins them
// over both samplers, plus three runs (FC and A-FC on PC, A-FC at a short
// re-rank cadence) that pin FactCrawl's score precision and tie-break.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "pipeline/factcrawl_pipeline.h"
#include "pipeline/pipeline.h"
#include "test_util.h"

namespace ie {
namespace {

// 64-bit FNV-1a. Stable by construction (no library hashing involved).
class Digest {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      state_ ^= p[i];
      state_ *= 1099511628211ull;
    }
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void U64(uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    Bytes(b, 8);
  }
  /// Doubles go through FormatDouble: the digest pins the exact bytes an
  /// export would contain, not a bit-pattern that could mask format bugs.
  void Double(double v) { Str(FormatDouble(v)); }

  std::string Hex() const {
    static const char* kDigits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) {
      out[15 - i] = kDigits[(state_ >> (4 * i)) & 0xF];
    }
    return out;
  }

 private:
  uint64_t state_ = 14695981039346656037ull;
};

std::string RunDigest(const SharedContext& context,
                      const PipelineResult& result) {
  Digest d;
  d.U64(result.processing_order.size());
  for (DocId doc : result.processing_order) d.U64(doc);
  for (uint8_t useful : result.processed_useful) d.U64(useful);
  d.U64(result.update_positions.size());
  for (size_t pos : result.update_positions) d.U64(pos);
  d.U64(result.warmup_documents);
  // Ranked tuple stream: the extractions in consumption order — the
  // artifact the paper's user actually receives.
  for (DocId doc : result.processing_order) {
    for (const ExtractedTuple& tuple : context.outcomes->tuples(doc)) {
      d.U64(static_cast<uint64_t>(tuple.relation));
      d.Str(tuple.attr1);
      d.Str(tuple.attr2);
      d.U64(tuple.sentence);
    }
  }
  d.U64(result.final_weights.size());
  for (const auto& [id, weight] : result.final_weights) {
    d.U64(id);
    d.Double(weight);
  }
  d.Double(result.extraction_seconds);
  return d.Hex();
}

/// Layer 2: the digest must equal its pin unless IE_GOLDEN_SKIP_PIN is set.
void ExpectPinned(const std::string& digest, const char* pinned) {
  if (std::getenv("IE_GOLDEN_SKIP_PIN") != nullptr) {
    GTEST_LOG_(INFO) << "IE_GOLDEN_SKIP_PIN set; computed digest " << digest;
    return;
  }
  EXPECT_EQ(digest, pinned)
      << "golden digest drifted — if the change is intentional, re-pin "
         "with the digest above (see DESIGN.md §12)";
}

/// Number of `"type":"iter"` lines in the ledger at `path`.
size_t LedgerIterLines(const std::string& path) {
  std::ifstream in(path);
  size_t n = 0;
  for (std::string line; std::getline(in, line);) {
    n += line.find("\"type\":\"iter\"") != std::string::npos ? 1 : 0;
  }
  return n;
}

struct GoldenCase {
  RankerKind ranker;
  UpdateKind update;
  uint64_t seed;
  /// Expected digest; pinned from the reference toolchain.
  const char* pinned;
};

/// e.g. "RSVMIE_ModC_seed1"; also the printed parameter, so that ctest
/// names carry no pointer bytes.
std::string GoldenCaseName(const GoldenCase& param) {
  std::string name = std::string(RankerKindName(param.ranker)) + "_" +
                     UpdateKindName(param.update) + "_seed" +
                     std::to_string(param.seed);
  name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
  return name;
}

void PrintTo(const GoldenCase& param, std::ostream* os) {
  *os << GoldenCaseName(param);
}

class DeterminismGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(DeterminismGoldenTest, ByteStableAcrossThreadsAndPinned) {
  const GoldenCase param = GetParam();
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config = PipelineConfig::Defaults(
      param.ranker, SamplerKind::kSRS, param.update, param.seed);
  config.sample_size = 120;
  // The flight recorder is a passive observer: running with it on must
  // reproduce the pinned digests bit for bit.
  config.ledger_path = ::testing::TempDir() + "golden_" +
                       RankerKindName(param.ranker) + "_" +
                       UpdateKindName(param.update) + "_" +
                       std::to_string(param.seed) + ".jsonl";

  std::string first;
  for (size_t threads : {1u, 2u, 8u}) {
    config.extract_threads = threads;
    const PipelineResult result =
        AdaptiveExtractionPipeline::Run(context, config);
    EXPECT_EQ(LedgerIterLines(config.ledger_path),
              result.processing_order.size());
    ASSERT_FALSE(result.final_weights.empty());
    // A pin over a run that never updates would not cover the detector.
    EXPECT_GT(result.NumUpdates(), 0u);
    // final_weights must arrive id-sorted: the facade guarantee.
    for (size_t i = 1; i < result.final_weights.size(); ++i) {
      ASSERT_LT(result.final_weights[i - 1].first,
                result.final_weights[i].first);
    }
    const std::string digest = RunDigest(context, result);
    if (first.empty()) {
      first = digest;
    } else {
      EXPECT_EQ(digest, first)
          << "digest diverged at extract_threads=" << threads;
    }
  }
  std::remove(config.ledger_path.c_str());
  ExpectPinned(first, param.pinned);
}

INSTANTIATE_TEST_SUITE_P(
    RankersAndSeeds, DeterminismGoldenTest,
    ::testing::Values(
        GoldenCase{RankerKind::kRSVMIE, UpdateKind::kModC, 1,
                   "54f792feff0fe676"},
        GoldenCase{RankerKind::kRSVMIE, UpdateKind::kModC, 7,
                   "117e9de66fedc05a"},
        GoldenCase{RankerKind::kBAggIE, UpdateKind::kModC, 1,
                   "e49e16915087925a"},
        GoldenCase{RankerKind::kBAggIE, UpdateKind::kModC, 7,
                   "7e3674ddc89acdb3"},
        GoldenCase{RankerKind::kRSVMIE, UpdateKind::kTopK, 1,
                   "3d5f2ab59c9f1b14"},
        GoldenCase{RankerKind::kRSVMIE, UpdateKind::kTopK, 7,
                   "398a06f128e0c7b9"},
        GoldenCase{RankerKind::kBAggIE, UpdateKind::kTopK, 1,
                   "dfbb93b5247a40bf"},
        GoldenCase{RankerKind::kBAggIE, UpdateKind::kTopK, 7,
                   "0b363c2d48e92bdc"},
        GoldenCase{RankerKind::kRSVMIE, UpdateKind::kFeatS, 1,
                   "7742c6d1f4a8d75f"},
        GoldenCase{RankerKind::kRSVMIE, UpdateKind::kFeatS, 7,
                   "1550fa60783bdeed"},
        GoldenCase{RankerKind::kBAggIE, UpdateKind::kFeatS, 1,
                   "b8c58daff21de255"},
        GoldenCase{RankerKind::kBAggIE, UpdateKind::kFeatS, 7,
                   "290422b65680f329"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return GoldenCaseName(info.param);
    });

struct SearchCase {
  RelationId relation;
  RankerKind ranker;
  UpdateKind update;
  /// Runs the real IE system per document instead of the outcome cache.
  bool live;
  /// Expected digest; a live case carries its cached-outcome twin's pin.
  const char* pinned;
};

/// The shared world's vocabulary grows as it is built: training each
/// relation's extractor and each run's up-front attribute interning add
/// ids, and the digest hashes feature ids. Building PH, then PC, before
/// any case makes a case run alone see the ids a whole-binary run sees.
void BuildWorldInPinOrder() {
  for (RelationId relation :
       {RelationId::kPersonCharge, RelationId::kPersonCareer}) {
    const ExtractionOutcomes& outcomes = test::SharedOutcomes(relation);
    for (DocId id : test::SharedCorpus().splits().test) {
      for (const std::string& value : outcomes.AttributeValues(id)) {
        test::SharedFeaturizer().AttributeFeatureId(value);
      }
    }
  }
}

PipelineResult RunSearch(const SearchCase& param, bool live) {
  SharedContext context = test::MakeSharedContext(param.relation);
  if (live) context.extraction_system = &test::SharedSystem(param.relation);
  PipelineConfig config = PipelineConfig::Defaults(
      param.ranker, SamplerKind::kSRS, param.update, /*seed=*/1);
  config.access = AccessMode::kSearchInterface;
  config.sample_size = 120;
  // RSVM-IE's Mod-C threshold for both rankers: at BAgg-IE's default 6°
  // the PH run never updates, so it would issue no refresh query.
  config.modc.alpha_degrees = 2.0;
  return AdaptiveExtractionPipeline::Run(context, config);
}

/// e.g. "PC_RSVMIE_ModC_seed1_live"; also the printed parameter, so that
/// ctest names carry no pointer bytes.
std::string SearchCaseName(const SearchCase& param) {
  std::string name = GetRelation(param.relation).code + "_" +
                     RankerKindName(param.ranker) + "_" +
                     UpdateKindName(param.update) + "_seed1" +
                     (param.live ? "_live" : "");
  name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
  return name;
}

void PrintTo(const SearchCase& param, std::ostream* os) {
  *os << SearchCaseName(param);
}

class SearchGoldenTest : public ::testing::TestWithParam<SearchCase> {};

// Search access: the initial queries, every refresh query after an update
// and the leftovers all shape the processing order, so these pins cover
// the query path that the full-access matrix above never takes.
TEST_P(SearchGoldenTest, Pinned) {
  const SearchCase param = GetParam();
  BuildWorldInPinOrder();
  const SharedContext context = test::MakeSharedContext(param.relation);
  const PipelineResult result = RunSearch(param, param.live);
  ASSERT_EQ(result.processing_order.size(), result.pool_size);
  // A pin over a run that never updates would not cover a refresh query.
  EXPECT_GT(result.NumUpdates(), 0u);
  const std::string digest = RunDigest(context, result);
  if (param.live) {
    // Live extraction must reproduce the cached outcomes' run exactly.
    EXPECT_EQ(digest, RunDigest(context, RunSearch(param, false)));
  }
  ExpectPinned(digest, param.pinned);
}

INSTANTIATE_TEST_SUITE_P(
    RelationsRankersDetectors, SearchGoldenTest,
    ::testing::Values(
        SearchCase{RelationId::kPersonCharge, RankerKind::kRSVMIE,
                   UpdateKind::kWindF, false, "23e41eeb4d41417b"},
        SearchCase{RelationId::kPersonCharge, RankerKind::kRSVMIE,
                   UpdateKind::kModC, false, "f9012c68cb9af1d5"},
        SearchCase{RelationId::kPersonCharge, RankerKind::kBAggIE,
                   UpdateKind::kWindF, false, "cd2cc62ed9bbefc2"},
        SearchCase{RelationId::kPersonCharge, RankerKind::kBAggIE,
                   UpdateKind::kModC, false, "94ff7f08ccc7aa99"},
        SearchCase{RelationId::kPersonCareer, RankerKind::kRSVMIE,
                   UpdateKind::kWindF, false, "9610ef5432134620"},
        SearchCase{RelationId::kPersonCareer, RankerKind::kRSVMIE,
                   UpdateKind::kModC, false, "2904ae5b197ebb70"},
        SearchCase{RelationId::kPersonCareer, RankerKind::kBAggIE,
                   UpdateKind::kWindF, false, "5aaa7ec2506b73fe"},
        SearchCase{RelationId::kPersonCareer, RankerKind::kBAggIE,
                   UpdateKind::kModC, false, "ccc1f8aaa586e7d1"},
        SearchCase{RelationId::kPersonCareer, RankerKind::kRSVMIE,
                   UpdateKind::kModC, true, "2904ae5b197ebb70"}),
    [](const ::testing::TestParamInfo<SearchCase>& info) {
      return SearchCaseName(info.param);
    });

enum class Baseline { kFC, kAFC };

const char* BaselineName(Baseline baseline) {
  switch (baseline) {
    case Baseline::kFC:
      return "FC";
    case Baseline::kAFC:
      return "AFC";
  }
  return "?";
}

struct BaselineCase {
  Baseline baseline;
  SamplerKind sampler;
  uint64_t seed;
  /// Expected digest; pinned from the reference toolchain.
  const char* pinned;
  RelationId relation = RelationId::kPersonCharge;
  /// A-FC's re-rank cadence (FactCrawlConfig's defaults unless set).
  size_t rerank_interval = FactCrawlConfig{}.rerank_interval;
  size_t refresh_every_reranks = FactCrawlConfig{}.refresh_every_reranks;
};

/// e.g. "AFC_SRS_seed7"; a relation other than PH and a non-default A-FC
/// cadence append their own parts ("AFC_SRS_seed1_every10_refresh2").
/// Also the printed parameter, so that ctest names carry no pointer bytes.
std::string BaselineCaseName(const BaselineCase& param) {
  std::string name = std::string(BaselineName(param.baseline)) + "_" +
                     SamplerKindName(param.sampler) + "_seed" +
                     std::to_string(param.seed);
  if (param.relation != RelationId::kPersonCharge) {
    name += "_" + GetRelation(param.relation).code;
  }
  const FactCrawlConfig defaults;
  if (param.rerank_interval != defaults.rerank_interval ||
      param.refresh_every_reranks != defaults.refresh_every_reranks) {
    name += "_every" + std::to_string(param.rerank_interval) + "_refresh" +
            std::to_string(param.refresh_every_reranks);
  }
  return name;
}

void PrintTo(const BaselineCase& param, std::ostream* os) {
  *os << BaselineCaseName(param);
}

PipelineResult RunBaseline(const SharedContext& context,
                           const BaselineCase& param) {
  FactCrawlConfig config;
  config.adaptive = param.baseline == Baseline::kAFC;
  config.sampler = param.sampler;
  config.sample_size = 120;
  config.seed = param.seed;
  config.rerank_interval = param.rerank_interval;
  config.refresh_every_reranks = param.refresh_every_reranks;
  return FactCrawlPipeline::Run(context, config);
}

class BaselineGoldenTest : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(BaselineGoldenTest, RepeatableAndPinned) {
  const BaselineCase param = GetParam();
  BuildWorldInPinOrder();
  SharedContext context = test::MakeSharedContext(param.relation);
  const std::vector<std::string> queries = {"courtroom", "trial", "fraud",
                                            "prosecutor"};
  context.cqs_queries = &queries;

  const PipelineResult result = RunBaseline(context, param);
  ASSERT_EQ(result.processing_order.size(), result.pool_size);
  EXPECT_TRUE(result.final_weights.empty());  // no learned model
  // Only A-FC re-ranks, so only its pins cover update positions.
  EXPECT_EQ(result.NumUpdates() > 0, param.baseline == Baseline::kAFC);
  const std::string digest = RunDigest(context, result);
  EXPECT_EQ(RunDigest(context, RunBaseline(context, param)), digest)
      << "a repeated run diverged";
  ExpectPinned(digest, param.pinned);
}

INSTANTIATE_TEST_SUITE_P(
    BaselinesSamplersAndSeeds, BaselineGoldenTest,
    ::testing::Values(
        BaselineCase{Baseline::kFC, SamplerKind::kSRS, 1,
                     "c0df88f2ca2cd3ad"},
        BaselineCase{Baseline::kFC, SamplerKind::kSRS, 7,
                     "48c0e50c1dbe57be"},
        BaselineCase{Baseline::kFC, SamplerKind::kCQS, 1,
                     "57e894a8decb884f"},
        BaselineCase{Baseline::kFC, SamplerKind::kCQS, 7,
                     "ce394d118798b53a"},
        BaselineCase{Baseline::kAFC, SamplerKind::kSRS, 1,
                     "d47f4a903bf61102"},
        BaselineCase{Baseline::kAFC, SamplerKind::kSRS, 7,
                     "354c161be2b892ef"},
        BaselineCase{Baseline::kAFC, SamplerKind::kCQS, 1,
                     "20630e325143c2e5"},
        BaselineCase{Baseline::kAFC, SamplerKind::kCQS, 7,
                     "28d010a733b94079"},
        // Runs whose order a float-score or insertion-slot tie-break
        // (instead of stable_sort's previous rank) would change.
        BaselineCase{Baseline::kFC, SamplerKind::kSRS, 1,
                     "cdc41bd24c580955", RelationId::kPersonCareer},
        BaselineCase{Baseline::kAFC, SamplerKind::kSRS, 7,
                     "0a8394dc9738ae62", RelationId::kPersonCareer},
        BaselineCase{Baseline::kAFC, SamplerKind::kSRS, 1,
                     "763428c520124c1b", RelationId::kPersonCharge, 10, 2}),
    [](const ::testing::TestParamInfo<BaselineCase>& info) {
      return BaselineCaseName(info.param);
    });

}  // namespace
}  // namespace ie
