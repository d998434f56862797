// The speculative extraction executor's work queue
// (pipeline/extract_executor.*), alongside ParallelFor in parallel.h: a
// closable MPMC queue, mutex + condition-variable based — the executor's
// unit of work (one document's extraction) is orders of magnitude heavier
// than a lock handoff, so lock-free machinery would buy nothing here.
//
// Lock discipline is stated with the capability annotations from
// common/sync.h and proved at compile time under the `thread-safety`
// preset (DESIGN.md §11): every queue field is GUARDED_BY(mu_), waits are
// explicit `while` loops so the analysis sees predicate reads under the
// lock, and the public surface EXCLUDES(mu_) — these methods must never
// be called from a context already holding the queue's own lock.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>

#include "common/sync.h"

namespace ie {

/// Unbounded multi-producer / multi-consumer FIFO queue of T with close
/// semantics: Pop blocks until an item arrives or the queue is closed and
/// drained. Push after Close rejects the item (returns false) — shutdown
/// races are benign, but the producer can observe the rejection.
template <typename T>
class WorkQueue {
 public:
  /// Enqueues `item`; false when the queue is already closed (the item is
  /// dropped).
  bool Push(T item) EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.NotifyOne();
    return true;
  }

  /// Blocks for the next item. Returns false when the queue is closed and
  /// empty (the consumer should exit).
  bool Pop(T* out) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (!closed_ && items_.empty()) cv_.Wait(mu_);
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// Removes every queued (not yet popped) item matching `pred`; returns
  /// how many were removed.
  template <typename Pred>
  size_t RemoveIf(Pred pred) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    size_t removed = 0;
    for (auto it = items_.begin(); it != items_.end();) {
      if (pred(*it)) {
        it = items_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

  void Close() EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.NotifyAll();
  }

  size_t size() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<T> items_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace ie
