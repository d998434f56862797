// CONTROL CASE — must COMPILE cleanly under -Wthread-safety[-beta]
// -Werror. Exercises every wrapper (Mutex, CondVar, the scoped lock, raw
// Lock/Unlock) with correct discipline; if this fails, the harness flags
// would be broken and every violation "failure" below it meaningless.
#include "common/sync.h"

namespace {

class Guarded {
 public:
  void Increment() EXCLUDES(mu_) {
    ie::MutexLock lock(mu_);
    ++value_;
  }

  void IncrementSplit() EXCLUDES(mu_) {
    mu_.Lock();
    ++value_;
    mu_.Unlock();
  }

  int WaitForPositive() EXCLUDES(mu_) {
    ie::MutexLock lock(mu_);
    while (value_ <= 0) cv_.Wait(mu_);
    return value_;
  }

  void Signal() EXCLUDES(mu_) {
    {
      ie::MutexLock lock(mu_);
      value_ = 1;
    }
    cv_.NotifyAll();
  }

 private:
  ie::Mutex mu_;
  ie::CondVar cv_;
  int value_ GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Guarded g;
  g.Increment();
  g.IncrementSplit();
  g.Signal();
  return g.WaitForPositive();
}
