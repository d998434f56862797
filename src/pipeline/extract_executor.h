// Speculative parallel extraction executor (DESIGN.md §9). The paper's
// premise is that running the IE system dominates wall time; ranking only
// decides *order*. Per-document extraction (NER → candidate enumeration →
// relation classification → featurization) depends on nothing but the
// document, so a worker pool can compute it for the top-W documents of the
// ranked frontier *ahead* of the consumer without changing a single emitted
// byte: the main loop still consumes strictly in ranked order, and a
// document that a model update demotes simply has its cached result
// consumed later. Speculation is invisible in the output and pays off
// whenever the frontier prefix survives the next re-rank (it almost always
// does — updates are rare and move the model little; see RerankEngine).
#pragma once

#include <exception>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "common/work_queue.h"
#include "learn/binary_svm.h"  // LabeledExample
#include "text/document.h"

namespace ie {

struct ExtractExecutorOptions {
  /// Worker threads. <= 1 disables speculation: Take() computes inline on
  /// the calling thread and Prefetch() is a no-op (the strictly serial
  /// reference behaviour).
  size_t threads = 1;
  /// Maximum outstanding speculative documents (queued + running + done but
  /// not yet consumed). Bounds memory and wasted work after a re-rank.
  size_t prefetch_window = 64;
};

struct ExtractExecutorStats {
  size_t hits = 0;        // Take() served from a completed speculative result
  size_t waits = 0;       // Take() blocked on an in-flight computation
  size_t misses = 0;      // Take() computed inline (never prefetched/stolen)
  size_t cancelled = 0;   // queued tasks dropped by CancelQueued()
  size_t tasks_executed = 0;  // worker-side executions
  /// Thread-CPU seconds spent in the work function, split by where it ran.
  /// The sum is the run's total extraction CPU independent of thread count.
  double worker_cpu_seconds = 0.0;
  double inline_cpu_seconds = 0.0;
};

/// Prefetching work pool over a pure per-document work function. All
/// public methods are meant for one consumer thread (the pipeline loop);
/// workers only touch internal state.
class ExtractExecutor {
 public:
  using WorkFn = std::function<LabeledExample(DocId)>;

  /// `work` must be pure and safe to call concurrently for distinct
  /// documents; it may run on any worker or on the consumer thread.
  ExtractExecutor(WorkFn work, ExtractExecutorOptions options);
  ~ExtractExecutor();

  ExtractExecutor(const ExtractExecutor&) = delete;
  ExtractExecutor& operator=(const ExtractExecutor&) = delete;

  bool speculative() const { return !workers_.empty(); }

  /// Requests speculative extraction of `doc`. No-op when not speculative,
  /// already outstanding, or the window is full.
  void Prefetch(DocId doc) EXCLUDES(mu_);

  /// Returns the extraction result for `doc`, consuming any speculative
  /// state: completed results are taken over, queued work is reclaimed and
  /// run inline, in-flight work is awaited. Exactly one Take per document.
  LabeledExample Take(DocId doc) EXCLUDES(mu_);

  /// Drops all queued-but-not-started speculative work (typically after a
  /// re-rank invalidated the frontier). Running/completed work is kept —
  /// demoted documents' results are simply consumed later.
  size_t CancelQueued() EXCLUDES(mu_);

  ExtractExecutorStats stats() const EXCLUDES(mu_);

 private:
  enum class State { kQueued, kRunning, kDone };
  struct Entry {
    State state = State::kQueued;
    LabeledExample result;
    std::exception_ptr error;
  };

  void WorkerLoop() EXCLUDES(mu_);

  WorkFn work_;
  ExtractExecutorOptions options_;
  // Never acquired with mu_ held (and vice versa): queue operations stay
  // outside the cache lock by design, so there is no lock order to get
  // wrong between the queue's internal mutex and mu_ (DESIGN.md §11).
  WorkQueue<DocId> queue_;
  std::vector<std::thread> workers_;

  mutable Mutex mu_;
  CondVar done_cv_;
  std::unordered_map<DocId, Entry> cache_ GUARDED_BY(mu_);
  ExtractExecutorStats stats_ GUARDED_BY(mu_);
};

}  // namespace ie
