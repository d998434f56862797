#include "pipeline/extract_executor.h"

#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "common/trace.h"

namespace ie {

ExtractExecutor::ExtractExecutor(WorkFn work, ExtractExecutorOptions options)
    : work_(std::move(work)), options_(options) {
  IE_CHECK(work_ != nullptr);
  if (options_.prefetch_window == 0) options_.prefetch_window = 1;
  if (options_.threads > 1) {
    workers_.reserve(options_.threads);
    for (size_t t = 0; t < options_.threads; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

ExtractExecutor::~ExtractExecutor() {
  queue_.Close();
  for (std::thread& worker : workers_) worker.join();
}

void ExtractExecutor::WorkerLoop() {
  DocId doc = 0;
  while (queue_.Pop(&doc)) {
    IE_TRACE_COUNTER("executor.queue_depth", queue_.size());
    {
      MutexLock lock(mu_);
      auto it = cache_.find(doc);
      // Reclaimed by Take() or dropped by CancelQueued() after it was
      // queued but before we popped it.
      if (it == cache_.end() || it->second.state != State::kQueued) continue;
      it->second.state = State::kRunning;
    }
    LabeledExample result;
    std::exception_ptr error;
    IE_TRACE_SCOPE("executor.task");
    CpuTimer timer;
    try {
      result = work_(doc);
    } catch (...) {
      error = std::current_exception();
    }
    const double cpu = timer.ElapsedSeconds();
    {
      MutexLock lock(mu_);
      auto it = cache_.find(doc);
      IE_CHECK(it != cache_.end() && it->second.state == State::kRunning);
      it->second.result = std::move(result);
      it->second.error = error;
      it->second.state = State::kDone;
      stats_.worker_cpu_seconds += cpu;
      ++stats_.tasks_executed;
    }
    done_cv_.NotifyAll();
  }
}

void ExtractExecutor::Prefetch(DocId doc) {
  if (!speculative()) return;
  {
    MutexLock lock(mu_);
    if (cache_.size() >= options_.prefetch_window) return;
    if (!cache_.emplace(doc, Entry{}).second) return;  // already outstanding
  }
  queue_.Push(doc);
}

LabeledExample ExtractExecutor::Take(DocId doc) {
  {
    MutexLock lock(mu_);
    // A serial executor's cache stays empty (Prefetch is a no-op), so
    // every Take there is a miss.
    auto it = cache_.find(doc);
    if (it != cache_.end() && it->second.state != State::kQueued) {
      if (it->second.state == State::kRunning) {
        ++stats_.waits;
        IE_TRACE_SCOPE("executor.wait");
        // Only this consumer inserts/erases cache_ entries, so the
        // iterator survives the wait; workers flip the state in place.
        while (it->second.state != State::kDone) done_cv_.Wait(mu_);
      } else {
        ++stats_.hits;
      }
      LabeledExample result = std::move(it->second.result);
      std::exception_ptr error = it->second.error;
      cache_.erase(it);
      if (error) std::rethrow_exception(error);
      return result;
    }
    // Reclaim queued work: erase so the worker that eventually pops this
    // id skips it, then compute inline below.
    if (it != cache_.end()) cache_.erase(it);
    ++stats_.misses;
  }
  IE_TRACE_SCOPE("executor.inline_task");
  CpuTimer timer;
  LabeledExample result = work_(doc);
  const double cpu = timer.ElapsedSeconds();
  {
    MutexLock lock(mu_);
    stats_.inline_cpu_seconds += cpu;
  }
  return result;
}

size_t ExtractExecutor::CancelQueued() {
  if (!speculative()) return 0;
  std::unordered_set<DocId> dropped;
  {
    MutexLock lock(mu_);
    // DETERMINISM: order-insensitive (erase-if over the cache; the set of
    // queued entries removed does not depend on visit order)
    for (auto it = cache_.begin(); it != cache_.end();) {
      if (it->second.state == State::kQueued) {
        dropped.insert(it->first);
        it = cache_.erase(it);
      } else {
        ++it;
      }
    }
    stats_.cancelled += dropped.size();
  }
  // Purge the ids workers have not popped yet; any id a worker already
  // holds finds no cache entry and is skipped (same path as Take()'s
  // reclaim).
  queue_.RemoveIf([&dropped](DocId d) { return dropped.count(d) > 0; });
  return dropped.size();
}

ExtractExecutorStats ExtractExecutor::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace ie
