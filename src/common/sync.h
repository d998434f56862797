// Capability-annotated synchronization primitives (DESIGN.md §11). The
// only sanctioned mutex/condvar types in this codebase: wrapping the std
// primitives in annotated classes is what lets Clang Thread Safety
// Analysis prove at compile time that every GUARDED_BY field is touched
// with the right lock held — the `thread-safety` preset and the
// tools/lint.py `raw-mutex` rule together make the wrappers unbypassable.
//
// Usage mirrors the std types:
//
//   ie::Mutex mu_;
//   int value_ GUARDED_BY(mu_);
//   { MutexLock lock(mu_); ++value_; }
//
//   ie::CondVar cv_;
//   { MutexLock lock(mu_); while (!ready_) cv_.Wait(mu_); }
//
// Waiting is deliberately loop-shaped (no predicate-lambda overload): the
// predicate reads guarded fields, and only an explicit `while` in the
// locked scope lets the analysis see those reads happen under the lock.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace ie {

/// Exclusive mutex. Prefer the scoped MutexLock; the raw Lock/Unlock pair
/// exists for the rare split acquire/release and keeps the analysis exact
/// either way.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped exclusive lock on an ie::Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to ie::Mutex. Wait atomically releases and
/// reacquires the mutex through its *underlying* std::mutex, which is
/// invisible to the analysis — REQUIRES(mu) on the declaration is the
/// whole contract, so no analysis escape is needed anywhere.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Caller must hold `mu`; holds it again on return. Spurious wakeups
  /// happen — always wait in a `while (!predicate)` loop.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the capability stays conceptually held throughout
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ie
