// Scale bench for the million-document index stack (DESIGN.md §13):
// streams a corpus straight to the on-disk format, builds the product
// backend (CompactIndex) and the test oracle (tests/index_oracle.h,
// reported as "inverted") from the mapped file, and reports build
// throughput, query throughput and resident postings memory per tier for
// both, re-proving byte-identical SearchHit output at every tier along the
// way.
//
// Not a microbench: the unit of work is an entire generate → write →
// build → query pass per corpus size, and results are emitted as JSON for
// CI trend tracking.
//
//   bench_index [--docs=10000,100000,1000000] [--out=BENCH_index.json]
//               [--tmp=/tmp]
//
// Environment knobs: IE_BENCH_DOCS replaces the tier list with a single
// tier (the CI smoke runs IE_BENCH_DOCS=4000).
//
// Acceptance gate: at tiers >= 1M documents the product backend must hold
// its postings in >= 4x less resident memory than the oracle
// (PostingsBytes ratio). Tiers whose estimated RAM/disk footprint does not
// fit the host are reported as "skipped" instead of run — the gate then
// reports SKIP, never a false FAIL.
#include <sys/statvfs.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "corpus/corpus_io.h"
#include "corpus/generator.h"
#include "harness.h"
#include "index/compact_index.h"
#include "tests/index_oracle.h"

using namespace ie;
using namespace ie::bench;

namespace {

// Conservative per-document footprint estimates (measured ~172 tokens and
// ~150 distinct terms per generated document) used only to decide whether
// a tier fits the host at all.
constexpr size_t kRamBytesPerDoc = 4096;   // both indexes + staging, peak
constexpr size_t kDiskBytesPerDoc = 1500;  // corpus file record + tables
constexpr size_t kQueriesPerTier = 200;
constexpr size_t kRatioGateDocs = 1000000;
constexpr double kRatioGate = 4.0;

struct BackendStats {
  double build_seconds = 0.0;
  double build_docs_per_sec = 0.0;
  size_t postings_bytes = 0;
  double qps_k10 = 0.0;
  double qps_k100 = 0.0;
};

struct TierStats {
  size_t docs = 0;
  bool skipped = false;       // did not fit the host; never ran
  size_t file_bytes = 0;
  double gen_write_seconds = 0.0;
  double gen_docs_per_sec = 0.0;
  size_t num_postings = 0;
  BackendStats inverted;  // the test oracle
  BackendStats compact;   // the product backend
  double compression_ratio = 0.0;  // oracle postings bytes / compact
  bool identical = true;           // SearchHit byte-identity over queries
};

std::vector<size_t> ParseDocsList(const std::string& csv) {
  std::vector<size_t> docs;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const long value = std::atol(csv.substr(pos, comma - pos).c_str());
    if (value > 0) docs.push_back(static_cast<size_t>(value));
    pos = comma + 1;
  }
  return docs;
}

size_t MemAvailableBytes() {
  std::FILE* f = std::fopen("/proc/meminfo", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long value = 0;
    if (std::sscanf(line, "MemAvailable: %llu kB", &value) == 1) {
      kib = static_cast<size_t>(value);
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
}

size_t DiskFreeBytes(const std::string& dir) {
  struct statvfs vfs;
  if (statvfs(dir.c_str(), &vfs) != 0) return 0;
  return static_cast<size_t>(vfs.f_bavail) *
         static_cast<size_t>(vfs.f_frsize);
}

/// Deterministic query workload: terms drawn from actual document bodies
/// (so posting lists of realistic lengths are exercised), 1-4 terms per
/// query with occasional duplicates to keep the dedup path hot.
std::vector<std::vector<TokenId>> MakeQueries(const CorpusReader& reader) {
  Rng rng(0x1d0c5ca1eULL);
  std::vector<std::vector<TokenId>> queries;
  queries.reserve(kQueriesPerTier);
  Document doc;
  while (queries.size() < kQueriesPerTier) {
    const DocId id =
        static_cast<DocId>(rng.NextBounded(reader.NumDocs()));
    IE_CHECK(reader.ReadDoc(id, &doc).ok());
    std::vector<TokenId> terms;
    const size_t num_terms = 1 + rng.NextBounded(4);
    for (size_t t = 0; t < num_terms; ++t) {
      const auto& sent =
          doc.sentences[rng.NextBounded(doc.sentences.size())];
      if (sent.tokens.empty()) continue;
      terms.push_back(sent.tokens[rng.NextBounded(sent.tokens.size())]);
    }
    if (terms.empty()) continue;
    if (rng.NextBool(0.2)) terms.push_back(terms.front());  // duplicate
    queries.push_back(std::move(terms));
  }
  return queries;
}

bool SameHits(const std::vector<SearchHit>& a,
              const std::vector<SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    uint32_t bits_a = 0;
    uint32_t bits_b = 0;
    std::memcpy(&bits_a, &a[i].score, sizeof(bits_a));
    std::memcpy(&bits_b, &b[i].score, sizeof(bits_b));
    if (a[i].doc != b[i].doc || bits_a != bits_b) return false;
  }
  return true;
}

double QueriesPerSecond(const SearchIndex& index,
                        const std::vector<std::vector<TokenId>>& queries,
                        size_t k) {
  // Volatile sink so the searches cannot be optimized away.
  volatile size_t sink = 0;
  WallTimer timer;
  for (const auto& query : queries) {
    sink = sink + index.Search(query, k).size();
  }
  const double wall = timer.ElapsedSeconds();
  return wall > 0.0 ? static_cast<double>(queries.size()) / wall : 0.0;
}

void PrintBackendJson(std::FILE* out, const char* name,
                      const BackendStats& stats, const char* trailer) {
  std::fprintf(out,
               "      \"%s\": {\"build_seconds\": %.3f, "
               "\"build_docs_per_sec\": %.0f, \"postings_bytes\": %zu, "
               "\"qps_k10\": %.1f, \"qps_k100\": %.1f}%s\n",
               name, stats.build_seconds, stats.build_docs_per_sec,
               stats.postings_bytes, stats.qps_k10, stats.qps_k100,
               trailer);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> tiers = {10000, 100000, 1000000};
  std::string out_path = "BENCH_index.json";
  const char* tmpdir_env = std::getenv("TMPDIR");
  std::string tmp_dir = tmpdir_env != nullptr ? tmpdir_env : "/tmp";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--docs=", 0) == 0) {
      tiers = ParseDocsList(arg.substr(7));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--tmp=", 0) == 0) {
      tmp_dir = arg.substr(6);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (std::getenv("IE_BENCH_DOCS") != nullptr) {
    tiers = {EnvSize("IE_BENCH_DOCS", 10000)};
  }

  bool all_identical = true;
  std::vector<TierStats> results;
  for (size_t docs : tiers) {
    TierStats tier;
    tier.docs = docs;

    const size_t ram_free = MemAvailableBytes();
    const size_t disk_free = DiskFreeBytes(tmp_dir);
    if ((ram_free > 0 && docs * kRamBytesPerDoc > ram_free) ||
        (disk_free > 0 && docs * kDiskBytesPerDoc > disk_free)) {
      std::fprintf(stderr,
                   "[bench_index] docs=%zu SKIP (needs ~%zu MB RAM / "
                   "~%zu MB disk; host has %zu MB / %zu MB free)\n",
                   docs, docs * kRamBytesPerDoc >> 20,
                   docs * kDiskBytesPerDoc >> 20, ram_free >> 20,
                   disk_free >> 20);
      tier.skipped = true;
      results.push_back(tier);
      continue;
    }

    const std::string path =
        tmp_dir + "/bench_index_" + std::to_string(docs) + ".iecp";

    // Phase 1: stream-generate straight to disk — one document resident
    // at a time, exactly the path a real million-document corpus takes.
    {
      GeneratorOptions options;
      options.num_documents = docs;
      WallTimer timer;
      const auto written = WriteGeneratedCorpus(options, path);
      IE_CHECK(written.ok());
      tier.gen_write_seconds = timer.ElapsedSeconds();
    }
    tier.gen_docs_per_sec =
        tier.gen_write_seconds > 0.0
            ? static_cast<double>(docs) / tier.gen_write_seconds
            : 0.0;

    auto reader_or = CorpusReader::Open(path);
    IE_CHECK(reader_or.ok());
    const CorpusReader& reader = *reader_or;
    {
      std::FILE* f = std::fopen(path.c_str(), "rb");
      IE_CHECK(f != nullptr);
      std::fseek(f, 0, SEEK_END);
      tier.file_bytes = static_cast<size_t>(std::ftell(f));
      std::fclose(f);
    }

    // Phase 2: build the oracle and the product backend from the mapped file.
    test::InvertedIndex inverted;
    {
      Document doc;
      WallTimer timer;
      for (DocId id = 0; id < reader.NumDocs(); ++id) {
        IE_CHECK(reader.ReadDoc(id, &doc).ok());
        IE_CHECK(inverted.Add(doc).ok());
      }
      tier.inverted.build_seconds = timer.ElapsedSeconds();
    }
    CompactIndex compact;
    {
      Document doc;
      WallTimer timer;
      for (DocId id = 0; id < reader.NumDocs(); ++id) {
        IE_CHECK(reader.ReadDoc(id, &doc).ok());
        IE_CHECK(compact.Add(doc).ok());
      }
      compact.Finalize();
      tier.compact.build_seconds = timer.ElapsedSeconds();
    }
    for (BackendStats* stats : {&tier.inverted, &tier.compact}) {
      stats->build_docs_per_sec =
          stats->build_seconds > 0.0
              ? static_cast<double>(docs) / stats->build_seconds
              : 0.0;
    }
    tier.num_postings = inverted.NumPostings();
    tier.inverted.postings_bytes = inverted.PostingsBytes();
    tier.compact.postings_bytes = compact.PostingsBytes();
    tier.compression_ratio =
        tier.compact.postings_bytes > 0
            ? static_cast<double>(tier.inverted.postings_bytes) /
                  static_cast<double>(tier.compact.postings_bytes)
            : 0.0;

    // Phase 3: equivalence sweep (untimed), then timed query throughput.
    const auto queries = MakeQueries(reader);
    for (const auto& query : queries) {
      for (size_t k : {10u, 100u}) {
        if (!SameHits(inverted.Search(query, k), compact.Search(query, k))) {
          tier.identical = false;
          all_identical = false;
          std::fprintf(stderr,
                       "FAIL: CompactIndex disagrees with the oracle at "
                       "docs=%zu k=%zu\n",
                       docs, k);
          break;
        }
      }
      if (!tier.identical) break;
    }
    tier.inverted.qps_k10 = QueriesPerSecond(inverted, queries, 10);
    tier.inverted.qps_k100 = QueriesPerSecond(inverted, queries, 100);
    tier.compact.qps_k10 = QueriesPerSecond(compact, queries, 10);
    tier.compact.qps_k100 = QueriesPerSecond(compact, queries, 100);

    std::fprintf(stderr,
                 "[bench_index] docs=%zu gen=%.1fs (%.0f docs/s) "
                 "file=%zuMB postings=%zu inverted{build=%.1fs mem=%zuMB "
                 "qps@10=%.0f} compact{build=%.1fs mem=%zuMB qps@10=%.0f} "
                 "ratio=%.2fx identical=%s\n",
                 docs, tier.gen_write_seconds, tier.gen_docs_per_sec,
                 tier.file_bytes >> 20, tier.num_postings,
                 tier.inverted.build_seconds,
                 tier.inverted.postings_bytes >> 20, tier.inverted.qps_k10,
                 tier.compact.build_seconds,
                 tier.compact.postings_bytes >> 20, tier.compact.qps_k10,
                 tier.compression_ratio, tier.identical ? "yes" : "NO");

    std::remove(path.c_str());
    results.push_back(tier);
  }

  // Acceptance: >= 4x postings-memory reduction at the million-doc tier.
  bool gate_applies = false;
  bool gate_passes = true;
  for (const TierStats& tier : results) {
    if (tier.skipped || tier.docs < kRatioGateDocs) continue;
    gate_applies = true;
    if (tier.compression_ratio < kRatioGate) gate_passes = false;
  }
  std::fprintf(stderr, "[bench_index] compression gate (>=%.1fx at %zu docs): %s\n",
               kRatioGate, kRatioGateDocs,
               gate_applies ? (gate_passes ? "PASS" : "FAIL")
                            : "SKIP (no million-doc tier ran)");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"index\",\n  \"byte_identical\": %s,\n"
               "  \"tiers\": [\n",
               all_identical ? "true" : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    const TierStats& tier = results[i];
    if (tier.skipped) {
      std::fprintf(out, "    {\"docs\": %zu, \"skipped\": true}%s\n",
                   tier.docs, i + 1 < results.size() ? "," : "");
      continue;
    }
    std::fprintf(out,
                 "    {\"docs\": %zu, \"skipped\": false,\n"
                 "      \"gen_write_seconds\": %.3f, "
                 "\"gen_docs_per_sec\": %.0f,\n"
                 "      \"corpus_file_bytes\": %zu, "
                 "\"num_postings\": %zu,\n",
                 tier.docs, tier.gen_write_seconds, tier.gen_docs_per_sec,
                 tier.file_bytes, tier.num_postings);
    PrintBackendJson(out, "inverted", tier.inverted, ",");
    PrintBackendJson(out, "compact", tier.compact, ",");
    std::fprintf(out,
                 "      \"compression_ratio\": %.3f, \"identical\": %s}%s\n",
                 tier.compression_ratio, tier.identical ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"compression_gate\": \"%s\"\n}\n",
               gate_applies ? (gate_passes ? "PASS" : "FAIL") : "SKIP");
  std::fclose(out);

  if (!all_identical) return 1;
  if (gate_applies && !gate_passes) return 1;
  return 0;
}
