// The repository benchmark. For one workload (workloads.h) it
//   1. sets the inputs up three times and reports the median set-up time;
//   2. runs AdaptiveExtractionPipeline::Run over the workload's configs in
//      whole passes, as many as --seconds buys (PassCount), with tracing,
//      ledger and iteration recording off, and takes the end-to-end
//      metrics from these runs;
//   3. checks every run's output: a permutation of the pool, verdicts equal
//      to the outcome cache, one digest per config across repetitions, and
//      the pinned digest when --pins gives one;
//   4. with --trace 1, runs the first pass only, replays each of its
//      configs through the layers' public calls with the benchmark's own
//      spans (replay.h), checks the replay equals Run(), and reports the
//      per-layer metrics instead.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--pins LABEL=HEX,...] [--details PATH]
//             [--quick] [--tamper order|verdict]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. perfbench/run.py builds this
// binary and runs it; see perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "pipeline/extract_executor.h"
#include "pipeline/pipeline.h"
#include "replay.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ie::DocId;

// ------------------------------------------------------------------- checks

/// 64-bit FNV-1a, folding integers as tests/determinism_golden_test.cc does.
class Digest {
 public:
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= static_cast<unsigned char>(v >> (8 * i));
      state_ *= 1099511628211ull;
    }
  }
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

/// Digest of a run's output: processing order, verdicts, update positions.
std::string OutputDigest(const std::vector<DocId>& order,
                         const std::vector<uint8_t>& useful,
                         const std::vector<size_t>& updates) {
  Digest d;
  d.U64(order.size());
  for (DocId doc : order) d.U64(doc);
  for (uint8_t u : useful) d.U64(u);
  d.U64(updates.size());
  for (size_t pos : updates) d.U64(pos);
  return d.Hex();
}

/// The checks one run allows on its own: the order is a permutation of
/// the pool and every verdict equals the outcome cache. Returns what
/// failed, or an empty string.
std::string CheckRun(const ie::PipelineResult& result,
                     const std::vector<DocId>& sorted_pool,
                     const ie::ExtractionOutcomes& outcomes) {
  std::vector<DocId> order = result.processing_order;
  std::sort(order.begin(), order.end());
  if (order != sorted_pool) return "order is not a permutation of the pool";
  if (result.processed_useful.size() != result.processing_order.size()) {
    return "verdict count differs from the order length";
  }
  for (size_t i = 0; i < result.processing_order.size(); ++i) {
    const bool cached = outcomes.useful(result.processing_order[i]);
    if ((result.processed_useful[i] != 0) != cached) {
      return "verdict at position " + std::to_string(i) +
             " differs from the outcome cache";
    }
  }
  return "";
}

/// Deliberate corruption for the self-test (--tamper).
void Tamper(const std::string& kind, ie::PipelineResult* result) {
  std::vector<DocId>& order = result->processing_order;
  std::vector<uint8_t>& useful = result->processed_useful;
  const size_t i = result->warmup_documents;
  if (kind == "verdict") {
    useful[i] ^= 1;
    return;
  }
  // Swap two documents with the same verdict: still a permutation whose
  // verdicts match the cache, so only the digest and replay checks see it.
  for (size_t j = i + 1; j < order.size(); ++j) {
    if (useful[j] == useful[i]) {
      std::swap(order[i], order[j]);
      return;
    }
  }
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

size_t UsefulInFirst(const std::vector<uint8_t>& useful, size_t n) {
  size_t found = 0;
  for (size_t i = 0; i < std::min(n, useful.size()); ++i) found += useful[i];
  return found;
}

/// Useful documents in the first 10% of the pool processed (warmup
/// included) ÷ the pool's useful documents.
double RecallAt10Pct(const ie::PipelineResult& r) {
  return Ratio(
      static_cast<double>(UsefulInFirst(r.processed_useful, r.pool_size / 10)),
      static_cast<double>(r.pool_useful));
}

// --------------------------------------------------------------- statistics

/// Linear-interpolated quantile (q in [0, 1]; 0.5 is the median); 0 for
/// no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// User plus system CPU of the whole process (every thread).
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Number(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

/// Named metrics in emission order, rendered as the result's JSON object.
class MetricWriter {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, value, unit);
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, value, unit] = metrics_[i];
      if (i > 0) out += ", ";
      out += "\"" + name + "\": {\"value\": " + Number(value) +
             ", \"unit\": \"" + unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<std::tuple<std::string, double, const char*>> metrics_;
};

// ---------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string work_dir = ".bench_build/perfbench/work";
  std::string pins;
  std::string details;
  std::string tamper;
  bool quick = false;  // small corpus, one set-up (the self-test)
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--pins") {
      args.pins = value;
    } else if (flag == "--details") {
      args.details = value;
    } else if (flag == "--tamper") {
      args.tamper = value;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1)) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
  }
  if (!args.tamper.empty() && args.tamper != "order" &&
      args.tamper != "verdict") {
    throw std::invalid_argument("--tamper takes order or verdict");
  }
  return args;
}

/// "LABEL=HEX,LABEL=HEX" -> {LABEL: HEX}.
std::map<std::string, std::string> ParsePins(const std::string& pins) {
  std::map<std::string, std::string> out;
  size_t pos = 0;
  while (pos < pins.size()) {
    size_t comma = pins.find(',', pos);
    if (comma == std::string::npos) comma = pins.size();
    const std::string item = pins.substr(pos, comma - pos);
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("bad pin: " + item);
    }
    out[item.substr(0, eq)] = item.substr(eq + 1);
    pos = comma + 1;
  }
  return out;
}

// ----------------------------------------------------------- untraced runs

/// One config's untraced runs and what their checks found.
struct ConfigRuns {
  ConfigCase c;
  std::vector<double> walls;
  std::vector<bool> run_failed;  // one entry per attempted Run()
  std::string digest;            // of the first completed run
  bool digest_diverged = false;
  size_t updates = 0;            // of the first completed run
  double recall = 0.0;           // of the first completed run
  /// The first run of a first-pass config, kept for the replay check and
  /// the program's own counters; later passes keep only their digest.
  bool have_reference = false;
  ie::PipelineResult reference;
  std::vector<std::string> problems;

  /// A check that covers every run of the config failed.
  void FailAll(std::string problem) {
    problems.push_back(std::move(problem));
    std::fill(run_failed.begin(), run_failed.end(), true);
  }
};

struct Measurement {
  /// Pass-major: pass p's configs are [p * n, (p + 1) * n).
  std::vector<ConfigRuns> configs;
  size_t passes = 0;
  double wall_s = 0.0;  // summed Run() wall time over the passes
  double cpu_s = 0.0;   // process CPU over the passes
  double docs = 0.0;    // documents processed over the passes
  double recall_sum = 0.0;
};

/// Runs `passes` whole passes over the config set, each with fresh run
/// seeds. Then one config of the first pass, picked by the seed, runs
/// again, so every invocation checks that a repeated run agrees; that
/// repeat is a check and stays out of the metrics.
Measurement MeasureRuns(const Args& args, const Workload& workload,
                        const World& world, size_t passes) {
  Measurement m;
  std::vector<DocId> sorted_pool = world.pool();
  std::sort(sorted_pool.begin(), sorted_pool.end());

  // One Run() and its checks; returns the result, or nothing when it threw.
  auto run_once = [&](ConfigRuns& cr,
                      bool tamper) -> std::optional<ie::PipelineResult> {
    cr.run_failed.push_back(false);
    ie::PipelineResult result;
    const int64_t start = NowNs();
    try {
      result = ie::AdaptiveExtractionPipeline::Run(
          ContextFor(world, workload, cr.c.relation), cr.c.config);
    } catch (const std::exception& e) {
      cr.run_failed.back() = true;
      cr.problems.push_back(std::string("Run() threw: ") + e.what());
      return std::nullopt;
    }
    cr.walls.push_back(SecondsSince(start));
    if (tamper) Tamper(args.tamper, &result);
    const std::string problem =
        CheckRun(result, sorted_pool, world.outcomes[cr.c.relation]);
    if (!problem.empty()) {
      cr.run_failed.back() = true;
      cr.problems.push_back(problem);
    }
    const std::string digest =
        OutputDigest(result.processing_order, result.processed_useful,
                     result.update_positions);
    if (cr.digest.empty()) {
      cr.digest = digest;
      cr.updates = result.update_positions.size();
      cr.recall = RecallAt10Pct(result);
    } else if (digest != cr.digest) {
      cr.digest_diverged = true;
    }
    return result;
  };

  for (size_t pass = 0; pass < passes; ++pass) {
    const int64_t pass_start = NowNs();
    const double cpu_start = ProcessCpuSeconds();
    for (ConfigCase& c : ConfigSet(workload, args.seed, pass)) {
      ConfigRuns& cr = m.configs.emplace_back();
      cr.c = std::move(c);
      // --tamper corrupts the first run of the config repeated below.
      const bool tamper = !args.tamper.empty() &&
                          m.configs.size() - 1 == args.seed % kConfigsPerPass;
      std::optional<ie::PipelineResult> result = run_once(cr, tamper);
      if (!result) continue;
      m.wall_s += cr.walls.back();
      m.docs += static_cast<double>(result->processing_order.size());
      m.recall_sum += cr.recall;
      if (pass == 0) {
        cr.reference = std::move(*result);
        cr.have_reference = true;
      }
    }
    m.cpu_s += ProcessCpuSeconds() - cpu_start;
    ++m.passes;
    std::fprintf(stderr, "[perfbench] pass %zu of %zu: %.3fs\n", m.passes,
                 passes, SecondsSince(pass_start));
  }
  run_once(m.configs[args.seed % kConfigsPerPass], false);
  return m;
}

/// A config whose runs disagree, or whose digest differs from its pin,
/// fails every run.
void CheckDigests(const std::map<std::string, std::string>& pins,
                  std::vector<ConfigRuns>* configs) {
  for (ConfigRuns& cr : *configs) {  // pins name first-pass labels only
    if (cr.digest_diverged) {
      cr.FailAll("output digest differs across repetitions");
    }
    const auto pin = pins.find(cr.c.label);
    if (pin != pins.end() && pin->second != cr.digest) {
      cr.FailAll("digest " + cr.digest + " differs from pin " + pin->second);
    }
  }
}

// ------------------------------------------------------------ traced replay

/// Replays the first pass's configs with spans, checks each replay against
/// its config's Run() and the span accounting, writes the spans under the
/// work directory and adds the per-layer metrics. Returns the replays.
std::vector<ReplayResult> TraceLayers(const Args& args,
                                      const Workload& workload,
                                      const World& world,
                                      const std::vector<SetupTimes>& setups,
                                      std::vector<ConfigRuns>* configs,
                                      MetricWriter* metrics) {
  SpanRecorder recorder;
  std::vector<ReplayResult> replays(kConfigsPerPass);
  for (size_t ci = 0; ci < kConfigsPerPass; ++ci) {
    ConfigRuns& cr = (*configs)[ci];
    recorder.set_run(static_cast<uint32_t>(ci));
    try {
      replays[ci] = ReplayRun(ContextFor(world, workload, cr.c.relation),
                              cr.c.config, &recorder);
    } catch (const std::exception& e) {
      cr.FailAll(std::string("replay threw: ") + e.what());
      continue;
    }
    const ReplayResult& rp = replays[ci];
    if (!cr.have_reference ||
        rp.processing_order != cr.reference.processing_order ||
        rp.processed_useful != cr.reference.processed_useful ||
        rp.update_positions != cr.reference.update_positions) {
      cr.FailAll("traced replay differs from Run()");
    }
  }

  // Self time per layer. Spans of the loop thread (thread 0) partition the
  // part of each replay they cover; the rest is the residual.
  const std::vector<Span>& spans = recorder.spans();
  std::vector<int64_t> self_ns;
  const bool nested = SelfTimes(spans, &self_ns);
  std::array<double, static_cast<size_t>(Layer::kCount)> layer_s{};
  std::vector<int64_t> covered_ns(kConfigsPerPass, 0);
  std::vector<bool> inside(kConfigsPerPass, true);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const ReplayResult& rp = replays[span.run];
    const double s = static_cast<double>(self_ns[i]) / 1e9;
    layer_s[static_cast<size_t>(span.layer)] += s;
    if (span.thread == 0) covered_ns[span.run] += self_ns[i];
    if (span.start_ns < rp.start_ns || span.end_ns > rp.end_ns) {
      inside[span.run] = false;
    }
  }
  double replay_wall = 0.0, residual = 0.0, run_wall = 0.0;
  for (size_t ci = 0; ci < kConfigsPerPass; ++ci) {
    ConfigRuns& cr = (*configs)[ci];
    const ReplayResult& rp = replays[ci];
    const int64_t residual_ns = rp.end_ns - rp.start_ns - covered_ns[ci];
    if (!nested || !inside[ci] || residual_ns < 0) {
      cr.FailAll("layer self times do not account for the replay wall time");
    }
    replay_wall += static_cast<double>(rp.end_ns - rp.start_ns) / 1e9;
    residual += static_cast<double>(residual_ns) / 1e9;
    run_wall += Quantile(cr.walls, 0.5);
  }
  // One file per workload, overwritten by the next traced run.
  const std::string spans_path =
      args.work_dir + "/spans-" + workload.name + ".json";
  if (!recorder.WriteJson(spans_path)) {
    std::fprintf(stderr, "[perfbench] could not write %s\n",
                 spans_path.c_str());
  }

  // Counts at the same boundaries, over one replay per config.
  size_t checks = 0, updates = 0, refreshes = 0, reranks = 0, queries = 0,
         hits = 0, new_candidates = 0, docs = 0, first_docs = 0,
         first_useful = 0;
  std::vector<double> pauses;
  ie::ExtractExecutorStats ex;
  const size_t n10 = world.pool().size() / 10;
  for (const ReplayResult& rp : replays) {
    checks += rp.checks;
    updates += rp.update_positions.size();
    refreshes += rp.refreshes;
    reranks += rp.reranks;
    queries += rp.queries;
    hits += rp.hits;
    new_candidates += rp.new_candidates;
    docs += rp.processing_order.size();
    first_docs += std::min(n10, rp.processed_useful.size());
    first_useful += UsefulInFirst(rp.processed_useful, n10);
    pauses.insert(pauses.end(), rp.update_pause_ms.begin(),
                  rp.update_pause_ms.end());
    ex.hits += rp.executor.hits;
    ex.waits += rp.executor.waits;
    ex.misses += rp.executor.misses;
    ex.cancelled += rp.executor.cancelled;
    ex.tasks_executed += rp.executor.tasks_executed;
  }
  // The program's own counters and timers, from the first pass's untraced
  // runs (the replay's base). Counters are read by name, so a counter a
  // later change removes reads as 0.
  auto counter = [configs](const char* name) {
    double total = 0.0;
    for (size_t ci = 0; ci < kConfigsPerPass; ++ci) {
      total += static_cast<double>(
          (*configs)[ci].reference.metrics.CounterOr(name));
    }
    return total;
  };
  auto program = [configs](double ie::PipelineResult::*field) {
    double total = 0.0;
    for (size_t ci = 0; ci < kConfigsPerPass; ++ci) {
      total += (*configs)[ci].reference.*field;
    }
    return total;
  };
  auto setup_median = [&setups](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Quantile(v, 0.5);
  };
  auto layer = [&layer_s](Layer l) { return layer_s[static_cast<size_t>(l)]; };
  auto n = [](size_t count) { return static_cast<double>(count); };
  const double delta = counter("rerank.delta_rescores");
  const double fallbacks = counter("rerank.density_fallbacks");

  MetricWriter& w = *metrics;
  w.Add("update.observe_s", layer(Layer::kObserve), "s");
  w.Add("update.observe_us_per_doc",
        Ratio(layer(Layer::kObserve) * 1e6, n(checks)), "us");
  w.Add("update.refresh_s", layer(Layer::kRefresh), "s");
  w.Add("update.refresh_ms_per_update",
        Ratio(layer(Layer::kRefresh) * 1e3, n(refreshes)), "ms");
  w.Add("update.checks", n(checks), "count");
  w.Add("update.updates", n(updates), "count");
  w.Add("update.fire_ratio", Ratio(n(updates), n(checks)), "fraction");
  w.Add("ranking.train_initial_s", layer(Layer::kTrainInitial), "s");
  w.Add("ranking.retrain_s", layer(Layer::kRetrain), "s");
  w.Add("ranking.query_select_s", layer(Layer::kQuerySelect), "s");
  w.Add("learn.pegasos_steps", counter("learn.pegasos_steps"), "count");
  w.Add("learn.margin_violations", counter("learn.margin_violations"),
        "count");
  w.Add("pipeline.rerank_s", layer(Layer::kRerank), "s");
  w.Add("pipeline.rerank_ms_per_update",
        Ratio(layer(Layer::kRerank) * 1e3, n(reranks)), "ms");
  w.Add("pipeline.frontier_s", layer(Layer::kFrontier), "s");
  w.Add("rerank.full_rescores", counter("rerank.full_rescores"), "count");
  w.Add("rerank.delta_rescores", delta, "count");
  w.Add("rerank.density_fallbacks", fallbacks, "count");
  w.Add("rerank.delta_yield", Ratio(delta, delta + fallbacks), "fraction");
  w.Add("pipeline.update_pause_ms.p50", Quantile(pauses, 0.5), "ms");
  w.Add("pipeline.update_pause_ms.p90", Quantile(pauses, 0.9), "ms");
  w.Add("pipeline.update_pause_ms.samples", n(pauses.size()), "count");
  w.Add("pipeline.residual_s", residual, "s");
  w.Add("extract.process_s", layer(Layer::kProcess), "s");
  w.Add("extract.us_per_doc", Ratio(layer(Layer::kProcess) * 1e6, n(docs)),
        "us");
  w.Add("extract.useful_ratio", Ratio(n(first_useful), n(first_docs)),
        "fraction");
  w.Add("text.featurize_s", layer(Layer::kFeaturize), "s");
  w.Add("executor.wait_s", layer(Layer::kTake), "s");
  w.Add("executor.hits", n(ex.hits), "count");
  w.Add("executor.waits", n(ex.waits), "count");
  w.Add("executor.misses", n(ex.misses), "count");
  w.Add("executor.cancelled", n(ex.cancelled), "count");
  w.Add("executor.hit_ratio", Ratio(n(ex.hits), n(docs)), "fraction");
  w.Add("executor.cancel_ratio",
        Ratio(n(ex.cancelled), n(ex.tasks_executed + ex.cancelled)),
        "fraction");
  w.Add("index.search_s", layer(Layer::kSearch), "s");
  w.Add("index.us_per_query", Ratio(layer(Layer::kSearch) * 1e6, n(queries)),
        "us");
  w.Add("index.queries", n(queries), "count");
  w.Add("index.new_candidate_ratio", Ratio(n(new_candidates), n(hits)),
        "fraction");
  w.Add("sampling.sample_s", layer(Layer::kSample), "s");
  w.Add("corpus.generate_s", setup_median(&SetupTimes::generate), "s");
  w.Add("corpus_io.read_s", setup_median(&SetupTimes::read), "s");
  w.Add("extract.train_s", setup_median(&SetupTimes::train), "s");
  w.Add("extract.outcomes_s", setup_median(&SetupTimes::outcomes), "s");
  w.Add("text.featurize_pool_s", setup_median(&SetupTimes::featurize), "s");
  w.Add("index.build_s", setup_median(&SetupTimes::index), "s");
  w.Add("trace.overhead_ratio", Ratio(replay_wall, run_wall), "ratio");
  w.Add("trace.replay_wall_s", replay_wall, "s");
  w.Add("trace.run_wall_s", run_wall, "s");
  w.Add("program.ranking_cpu_s",
        program(&ie::PipelineResult::ranking_cpu_seconds), "s");
  w.Add("program.detector_cpu_s",
        program(&ie::PipelineResult::detector_cpu_seconds), "s");
  w.Add("program.extract_cpu_s",
        program(&ie::PipelineResult::extract_cpu_seconds), "s");
  w.Add("program.extract_wall_s",
        program(&ie::PipelineResult::extract_wall_seconds), "s");
  return replays;
}

/// Per-config digests, walls and recall, for re-pinning and the self-test.
void WriteDetails(const std::string& path, const Args& args,
                  const World& world, const Measurement& m,
                  const std::vector<ReplayResult>& replays) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(file,
               "{\"workload\": \"%s\", \"seed\": %llu, \"pool\": %zu, "
               "\"passes\": %zu, \"configs\": {",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               world.pool().size(), m.passes);
  for (size_t ci = 0; ci < m.configs.size(); ++ci) {
    const ConfigRuns& cr = m.configs[ci];
    std::string walls;
    for (double wall : cr.walls) {
      walls += (walls.empty() ? "" : ", ") + Number(wall);
    }
    const double replay_wall =
        ci < replays.size()
            ? static_cast<double>(replays[ci].end_ns - replays[ci].start_ns) /
                  1e9
            : 0.0;
    std::fprintf(file,
                 "%s\n  \"%s\": {\"digest\": \"%s\", \"run_walls_s\": [%s], "
                 "\"replay_wall_s\": %s, \"updates\": %zu, "
                 "\"recall_at_10pct\": %s}",
                 ci > 0 ? "," : "", cr.c.label.c_str(), cr.digest.c_str(),
                 walls.c_str(), Number(replay_wall).c_str(), cr.updates,
                 Number(cr.recall).c_str());
  }
  std::fprintf(file, "}}\n");
  if (std::fclose(file) != 0) throw std::runtime_error("cannot write " + path);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    throw std::invalid_argument("unknown workload: " + args.workload);
  }
  const size_t docs = args.quick ? kQuickDocs : workload->docs;
  const size_t setups = args.quick ? 1 : 3;
  const std::map<std::string, std::string> pins = ParsePins(args.pins);
  std::filesystem::create_directories(args.work_dir);

  // Set-up, several times; the last world serves the runs.
  std::unique_ptr<World> world;
  std::vector<SetupTimes> setup_times;
  for (size_t s = 0; s < setups; ++s) {
    world.reset();
    world = Setup(*workload, docs, args.seed, args.work_dir);
    setup_times.push_back(world->times);
    std::fprintf(stderr, "[perfbench] %s setup %zu: %.3fs\n", workload->name,
                 s + 1, world->times.total);
  }

  // The traced replay covers the first pass only, so a traced invocation
  // runs just that pass.
  const size_t passes =
      args.trace == 1 ? 1 : PassCount(*workload, args.seconds);
  Measurement m = MeasureRuns(args, *workload, *world, passes);
  const double peak_rss_mb = PeakRssMb();
  CheckDigests(pins, &m.configs);

  MetricWriter metrics;
  std::vector<ReplayResult> replays;
  if (args.trace == 0) {
    std::vector<double> setup_s;
    for (const SetupTimes& t : setup_times) setup_s.push_back(t.total);
    const double runs = static_cast<double>(m.passes * kConfigsPerPass);
    metrics.Add("docs_per_s", Ratio(m.docs, m.wall_s), "docs/s");
    metrics.Add("cpu_ms_per_doc", Ratio(m.cpu_s * 1e3, m.docs), "ms");
    metrics.Add("recall_at_10pct", Ratio(m.recall_sum, runs), "fraction");
    metrics.Add("setup_s", Quantile(setup_s, 0.5), "s");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    replays = TraceLayers(args, *workload, *world, setup_times, &m.configs,
                          &metrics);
  }
  if (!args.details.empty()) {
    WriteDetails(args.details, args, *world, m, replays);
  }

  size_t attempted = 0, failed = 0;
  for (const ConfigRuns& cr : m.configs) {
    attempted += cr.run_failed.size();
    failed += static_cast<size_t>(
        std::count(cr.run_failed.begin(), cr.run_failed.end(), true));
    for (const std::string& problem : cr.problems) {
      std::fprintf(stderr, "[perfbench] FAIL %s: %s\n", cr.c.label.c_str(),
                   problem.c_str());
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      failed == 0 ? "true" : "false", attempted, failed,
      metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
