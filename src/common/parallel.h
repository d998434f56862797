// Minimal data-parallel helper (paper Section 6 future work: "exploring
// parallelization approaches that, combined with the ranking-based
// approach ... can further speed up the execution"). Used to featurize
// the pool (FeaturizePool) and to run the extractors over a corpus
// (ExtractionOutcomes::Compute); results are deterministic because each
// index writes only its own slot.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ie {

/// Runs fn(i) for i in [0, n) across up to `threads` std::threads, in
/// contiguous blocks. threads <= 1 (or tiny n) degenerates to a serial
/// loop. fn must be safe to call concurrently for distinct i.
///
/// Exception safety: if fn throws, the first exception (by worker start
/// order) is captured, all workers are still joined, and the exception is
/// rethrown on the calling thread. A worker that throws abandons the rest
/// of its block; other workers' blocks still run to completion.
inline void ParallelFor(size_t n, size_t threads,
                        const std::function<void(size_t)>& fn) {
  if (threads <= 1 || n < 2 * threads) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const size_t block = (n + threads - 1) / threads;
  // One exception slot per worker; each worker writes only its own slot,
  // so the vector needs no locking (same determinism argument as callers
  // writing distinct result slots).
  std::vector<std::exception_ptr> errors(threads);
  for (size_t t = 0; t < threads; ++t) {
    const size_t begin = t * block;
    const size_t end = std::min(n, begin + block);
    if (begin >= end) break;
    workers.emplace_back([&fn, &errors, t, begin, end] {
      try {
        for (size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::exception_ptr& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace ie
