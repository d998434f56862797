// Perf trajectory for the per-document featurizer (DESIGN.md §14): the
// production Featurizer (open-addressed count table and entry staging in
// reused per-thread scratch) against a faithful in-bench copy of the
// original implementation (unordered_map count table, heap-vector entry
// staging), single-threaded, timed in thread CPU seconds with the two
// sides interleaved rep by rep in order-balanced pairs.
//
// Emits JSON for CI trend tracking (tools/bench_trend.py) with one
// acceptance gate:
//   featurize speedup >= 1.5x  (production featurizer vs the
//                               unordered_map reference)
// and a mandatory bitwise-identity check: the optimized featurizer must
// reproduce the reference feature for feature, bit for bit.
//
//   bench_featurize [--out=BENCH_featurize.json] [--reps=7]
//
// Without --out the comparison is printed to stderr only. Exit status:
// 0 gate passes, 1 gate fails, 2 output file not writable.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "harness.h"

using namespace ie;
using namespace ie::bench;

namespace {

// The original Featurizer hot loop: unordered_map count accumulation,
// heap-vector entry staging, FromUnsorted.
SparseVector RefFeaturize(const Document& doc) {
  std::unordered_map<uint32_t, float> counts;
  for (const Sentence& sentence : doc.sentences) {
    for (TokenId token : sentence.tokens) counts[token] += 1.0f;
  }
  std::vector<SparseVector::Entry> entries;
  entries.reserve(counts.size());
  // DETERMINISM: order-insensitive (FromUnsorted sorts entries by id).
  for (const auto& [id, tf] : counts) {
    entries.push_back({id, 1.0f + std::log(tf)});
  }
  SparseVector v = SparseVector::FromUnsorted(std::move(entries));
  v.Normalize();
  return v;
}

struct FeaturizeResult {
  size_t docs = 0;
  double reference_us = 0.0;   // per document
  double production_us = 0.0;  // per document
  double speedup = 0.0;
  bool identical = false;
};

// An empty asm barrier that the compiler must assume reads and writes
// `value` (the one google-benchmark's DoNotOptimize emits under GCC), so
// the timed loop that produced it cannot be optimized away.
void KeepAlive(size_t& value) {
  asm volatile("" : "+m,r"(value) : : "memory");
}

template <typename Fn>
double CpuSeconds(Fn&& fn) {
  CpuTimer timer;
  fn();
  return timer.ElapsedSeconds();
}

struct Interleaved {
  double best_reference = 0.0;  // seconds, fastest run per side
  double best_production = 0.0;
  double median_ratio = 0.0;    // median rep score
};

/// The reference and the production side timed rep by rep: each rep runs
/// one reference-first and one production-first pair, so host drift and
/// the warmer second slot land on both sides alike. A rep scores the
/// geometric mean of its two reference/production ratios.
template <typename Ref, typename Prod>
Interleaved TimeInterleaved(int reps, Ref&& reference, Prod&& production) {
  Interleaved out;
  const auto keep_best = [](double* best, double seconds) {
    if (*best == 0.0 || seconds < *best) *best = seconds;
  };
  std::vector<double> scores;
  for (int r = 0; r < reps; ++r) {
    const double ref_first = CpuSeconds(reference);
    const double prod_second = CpuSeconds(production);
    const double prod_first = CpuSeconds(production);
    const double ref_second = CpuSeconds(reference);
    keep_best(&out.best_reference, std::min(ref_first, ref_second));
    keep_best(&out.best_production, std::min(prod_first, prod_second));
    if (prod_first > 0.0 && prod_second > 0.0) {
      scores.push_back(std::sqrt((ref_first / prod_second) *
                                 (ref_second / prod_first)));
    }
  }
  if (!scores.empty()) {
    std::sort(scores.begin(), scores.end());
    const size_t mid = scores.size() / 2;
    out.median_ratio = scores.size() % 2 == 1
                           ? scores[mid]
                           : 0.5 * (scores[mid - 1] + scores[mid]);
  }
  return out;
}

FeaturizeResult RunFeaturizeTrajectory(Harness& harness, int reps) {
  const Corpus& corpus = harness.world().corpus;
  const std::vector<DocId>& pool = harness.test_pool();
  const size_t num_docs = std::min<size_t>(2000, pool.size());
  const Featurizer& featurizer = harness.featurizer();

  // Bitwise-equivalence check (untimed): the production path must
  // reproduce the unordered_map path feature for feature, bit for bit.
  bool identical = true;
  for (size_t i = 0; i < num_docs && identical; ++i) {
    const Document& doc = corpus.doc(pool[i]);
    const SparseVector a = featurizer.Featurize(doc);
    const SparseVector b = RefFeaturize(doc);
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

  const Interleaved timed = TimeInterleaved(
      reps,
      [&] {
        size_t total = 0;
        for (size_t i = 0; i < num_docs; ++i) {
          total += RefFeaturize(corpus.doc(pool[i])).size();
        }
        KeepAlive(total);
      },
      [&] {
        size_t total = 0;
        for (size_t i = 0; i < num_docs; ++i) {
          total += featurizer.Featurize(corpus.doc(pool[i])).size();
        }
        KeepAlive(total);
      });

  FeaturizeResult out;
  out.docs = num_docs;
  out.identical = identical;
  out.reference_us =
      timed.best_reference * 1e6 / static_cast<double>(num_docs);
  out.production_us =
      timed.best_production * 1e6 / static_cast<double>(num_docs);
  out.speedup = timed.median_ratio;
  std::fprintf(stderr,
               "[bench_featurize] featurize over %zu docs: "
               "reference=%.2fus/doc production=%.2fus/doc "
               "speedup=%.2fx identical=%s\n",
               out.docs, out.reference_us, out.production_us, out.speedup,
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
               "\"reference_us_per_doc\": %.3f, "
               "\"production_us_per_doc\": %.3f, \"speedup\": %.3f},\n",
               result.docs, result.reference_us, result.production_us,
               result.speedup);
  std::fprintf(out, "  \"gate_threshold\": %.2f,\n  \"gate\": \"%s\"\n}\n",
               kSpeedupGate, gate_passes ? "PASS" : "FAIL");
  std::fclose(out);
  return gate_passes ? 0 : 1;
}
