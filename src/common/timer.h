// Wall-clock and thread-CPU timers.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>

namespace ie {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Per-thread CPU-time stopwatch (CLOCK_THREAD_CPUTIME_ID). Used to measure
/// real ranking/update-detection overhead, matching the paper's "CPU time"
/// metric for overhead accounting.
class CpuTimer {
 public:
  CpuTimer() { Restart(); }

  void Restart() { start_ = Now(); }

  double ElapsedSeconds() const { return Now() - start_; }

 private:
  static double Now() {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  double start_;
};

}  // namespace ie
