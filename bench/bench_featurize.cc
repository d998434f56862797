// Perf trajectory for the per-document featurizer (DESIGN.md §14): the
// production arena + flat-hash Featurizer against a faithful in-bench copy
// of the pre-arena implementation (unordered_map count and bigram tables,
// heap-vector entry staging), single-threaded, best-of-reps wall time.
//
// Emits JSON for CI trend tracking (tools/bench_trend.py) with one
// acceptance gate:
//   featurize speedup >= 1.5x  (arena + flat-hash featurizer vs the
//                               unordered_map reference)
// and a mandatory bitwise-identity check: the optimized featurizer must
// reproduce the reference feature for feature, bit for bit.
//
//   bench_featurize [--out=BENCH_featurize.json] [--reps=7]
//
// Without --out the comparison is printed to stderr only. Exit status:
// 0 gate passes, 1 gate fails, 2 output file not writable.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>

#include "harness.h"

using namespace ie;
using namespace ie::bench;

namespace {

// The pre-SoA Featurizer hot loop: unordered_map count accumulation,
// unordered_map bigram-id lookups (default identity hash on uint64_t — the
// clustering bug the flat hash's splitmix64 mixer fixes), heap-vector entry
// staging, FromUnsorted.
SparseVector RefFeaturize(
    const Document& doc,
    const std::unordered_map<uint64_t, uint32_t>& bigram_map, bool log_tf) {
  std::unordered_map<uint32_t, float> counts;
  for (const Sentence& sentence : doc.sentences) {
    for (size_t i = 0; i < sentence.tokens.size(); ++i) {
      counts[sentence.tokens[i]] += 1.0f;
      if (i + 1 < sentence.tokens.size()) {
        const uint64_t key =
            (static_cast<uint64_t>(sentence.tokens[i]) << 32) |
            static_cast<uint64_t>(sentence.tokens[i + 1]);
        counts[bigram_map.at(key)] += 1.0f;
      }
    }
  }
  std::vector<SparseVector::Entry> entries;
  entries.reserve(counts.size());
  // DETERMINISM: order-insensitive (FromUnsorted sorts entries by id).
  for (const auto& [id, tf] : counts) {
    entries.push_back({id, log_tf ? 1.0f + std::log(tf) : tf});
  }
  SparseVector v = SparseVector::FromUnsorted(std::move(entries));
  v.Normalize();
  return v;
}

struct FeaturizeResult {
  size_t docs = 0;
  double reference_us = 0.0;  // per document
  double arena_us = 0.0;      // per document
  double speedup = 0.0;
  bool identical = false;
};

template <typename Fn>
double BestOfRepsSeconds(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    const double wall = timer.ElapsedSeconds();
    if (best == 0.0 || wall < best) best = wall;
  }
  return best;
}

FeaturizeResult RunFeaturizeTrajectory(Harness& harness, int reps) {
  Corpus& corpus = harness.world().corpus;
  const std::vector<DocId>& pool = harness.test_pool();
  const size_t num_docs = std::min<size_t>(2000, pool.size());

  // A bigram featurizer so the trajectory covers the flat-hash bigram
  // cache, not just the count table. Warm serially (interns every bigram),
  // then snapshot the id map for the reference path — both timed loops do
  // pure lookups, the steady state after FeaturizePool's warm pass.
  FeaturizerOptions options;
  options.use_bigrams = true;
  Featurizer featurizer(&corpus.vocab(), options);
  std::unordered_map<uint64_t, uint32_t> bigram_map;
  for (size_t i = 0; i < num_docs; ++i) {
    const Document& doc = corpus.doc(pool[i]);
    featurizer.WarmBigrams(doc);
    for (const Sentence& sentence : doc.sentences) {
      for (size_t t = 0; t + 1 < sentence.tokens.size(); ++t) {
        const uint64_t key =
            (static_cast<uint64_t>(sentence.tokens[t]) << 32) |
            static_cast<uint64_t>(sentence.tokens[t + 1]);
        bigram_map.emplace(
            key,
            featurizer.BigramFeatureId(sentence.tokens[t],
                                       sentence.tokens[t + 1]));
      }
    }
  }

  // Bitwise-equivalence check (untimed): the arena path must reproduce the
  // unordered_map path feature for feature, bit for bit.
  bool identical = true;
  for (size_t i = 0; i < num_docs && identical; ++i) {
    const Document& doc = corpus.doc(pool[i]);
    const SparseVector a = featurizer.Featurize(doc);
    const SparseVector b =
        RefFeaturize(doc, bigram_map, featurizer.options().log_tf);
    if (a.size() != b.size()) {
      identical = false;
      break;
    }
    for (size_t j = 0; j < a.size(); ++j) {
      uint32_t bits_a = 0;
      uint32_t bits_b = 0;
      const float va = a.value(j);
      const float vb = b.value(j);
      std::memcpy(&bits_a, &va, sizeof(bits_a));
      std::memcpy(&bits_b, &vb, sizeof(bits_b));
      if (a.id(j) != b.id(j) || bits_a != bits_b) {
        identical = false;
        break;
      }
    }
  }

  const double ref_seconds = BestOfRepsSeconds(reps, [&] {
    size_t total = 0;
    for (size_t i = 0; i < num_docs; ++i) {
      total += RefFeaturize(corpus.doc(pool[i]), bigram_map,
                            featurizer.options().log_tf)
                   .size();
    }
    benchmark::DoNotOptimize(total);
  });
  const double arena_seconds = BestOfRepsSeconds(reps, [&] {
    size_t total = 0;
    for (size_t i = 0; i < num_docs; ++i) {
      total += featurizer.Featurize(corpus.doc(pool[i])).size();
    }
    benchmark::DoNotOptimize(total);
  });

  FeaturizeResult out;
  out.docs = num_docs;
  out.identical = identical;
  out.reference_us = ref_seconds * 1e6 / static_cast<double>(num_docs);
  out.arena_us = arena_seconds * 1e6 / static_cast<double>(num_docs);
  out.speedup = arena_seconds > 0.0 ? ref_seconds / arena_seconds : 0.0;
  std::fprintf(stderr,
               "[bench_featurize] featurize over %zu docs: "
               "reference=%.2fus/doc arena=%.2fus/doc speedup=%.2fx "
               "identical=%s\n",
               out.docs, out.reference_us, out.arena_us, out.speedup,
               out.identical ? "yes" : "NO");
  return out;
}

constexpr double kSpeedupGate = 1.5;

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  int reps = 7;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::max(1, std::atoi(arg.substr(7).c_str()));
    } else {
      std::fprintf(stderr,
                   "usage: bench_featurize [--out=FILE] [--reps=N]\n");
      return 2;
    }
  }

  Harness harness({RelationId::kPersonCharge}, NumDocs());
  const FeaturizeResult result = RunFeaturizeTrajectory(harness, reps);
  const bool gate_passes =
      result.identical && result.speedup >= kSpeedupGate;
  std::fprintf(stderr,
               "[bench_featurize] gate (>=%.1fx, bit-identical): "
               "featurize=%.2fx -> %s\n",
               kSpeedupGate, result.speedup, gate_passes ? "PASS" : "FAIL");
  if (out_path.empty()) return gate_passes ? 0 : 1;

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"featurize\",\n  \"docs\": %zu,\n"
               "  \"byte_identical\": %s,\n",
               NumDocs(), result.identical ? "true" : "false");
  std::fprintf(out,
               "  \"featurize\": {\"docs\": %zu, "
               "\"reference_us_per_doc\": %.3f, \"arena_us_per_doc\": %.3f, "
               "\"speedup\": %.3f},\n",
               result.docs, result.reference_us, result.arena_us,
               result.speedup);
  std::fprintf(out, "  \"gate_threshold\": %.2f,\n  \"gate\": \"%s\"\n}\n",
               kSpeedupGate, gate_passes ? "PASS" : "FAIL");
  std::fclose(out);
  return gate_passes ? 0 : 1;
}
