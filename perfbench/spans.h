// In-memory span buffer for the traced replay. Each span records the layer
// call it wraps, its start and end on the steady clock, the span that was
// open on the same thread when it began (its parent), the replay run it
// belongs to, and the recording thread. Spans stay in memory until the
// benchmark writes them out at the end; the program's own Tracer is never
// touched.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The layer calls the replay times. Names are the per-layer metric stems.
enum class Layer : uint8_t {
  kSample,        // Sampler::Sample
  kTake,          // ExtractExecutor::Take
  kProcess,       // ExtractionSystem::Process or the outcome-cache read
  kFeaturize,     // Featurizer::Featurize (cached word features if useless)
  kTrainInitial,  // DocumentRanker::TrainInitial
  kRetrain,       // DocumentRanker::Observe over the update buffer
  kObserve,       // UpdateDetector::Observe
  kRefresh,       // UpdateDetector::OnModelUpdated
  kQuerySelect,   // LearnQueries, or ModelWeights + TopKFeatures
  kSearch,        // SearchIndex::SearchText
  kRerank,        // RerankEngine::Rerank
  kFrontier,      // RerankEngine::AddCandidate / PopNext / Requeue
  kCount
};

const char* LayerName(Layer layer);

struct Span {
  Layer layer = Layer::kCount;
  uint32_t run = 0;
  uint32_t thread = 0;  // 0 = the thread that created the recorder
  int32_t parent = -1;  // index into the buffer; -1 = no enclosing span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Thread-safe append-only span buffer. Spans nest per thread: a span's
/// parent is the innermost open span of the thread that opened it, so
/// spans recorded on executor workers are roots of their own thread.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int32_t index_;
    int32_t outer_;
  };

  /// Tags subsequently opened spans with `run`.
  void set_run(uint32_t run) { run_ = run; }

  /// The buffer. Read it only once every recording thread has stopped.
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the buffer as a JSON array, one span object per line.
  bool WriteJson(const std::string& path) const;

 private:
  uint32_t ThreadIndex();

  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_ while recording
  std::vector<uint64_t> thread_keys_;  // guarded by mu_
  uint32_t run_ = 0;
};

/// Per-span self time: duration minus the time its children cover.
/// Children of one parent run on the parent's thread one after another,
/// so their durations add without overlap. Returns false (and leaves
/// `self_ns` partial) when a child lies outside its parent or a span
/// never closed.
bool SelfTimes(const std::vector<Span>& spans, std::vector<int64_t>* self_ns);

}  // namespace perfbench
