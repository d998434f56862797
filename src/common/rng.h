// Deterministic random number generation. All stochastic components of the
// library (corpus generation, sampling, online learners) draw from ie::Rng
// so that every experiment is reproducible from a single seed.
#pragma once

#include <cstdint>
#include <cmath>
#include <cassert>
#include <algorithm>
#include <vector>

namespace ie {

/// splitmix64: used to expand a single 64-bit seed into the xoshiro state.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** — fast, high-quality, deterministic PRNG.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& s : state_) s = SplitMix64(sm);
    has_gauss_ = false;
  }

  uint64_t NextUint64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) {
    assert(bound > 0);
    // Lemire's nearly-divisionless bounded generation.
    uint64_t x = NextUint64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      uint64_t t = -bound % bound;
      while (l < t) {
        x = NextUint64();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Bernoulli trial with success probability p.
  bool NextBool(double p) { return NextDouble() < p; }

  /// Standard normal via Marsaglia polar method (cached pair).
  double NextGaussian() {
    if (has_gauss_) {
      has_gauss_ = false;
      return gauss_;
    }
    double u, v, s;
    do {
      u = 2.0 * NextDouble() - 1.0;
      v = 2.0 * NextDouble() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    gauss_ = v * mul;
    has_gauss_ = true;
    return u * mul;
  }

  /// Zipf-distributed integer in [0, n) with exponent `s` (s > 0). Uses
  /// rejection-inversion (Hörmann); suitable for large n.
  uint64_t NextZipf(uint64_t n, double s);

  /// Sample an index from an (unnormalized) non-negative weight vector.
  size_t NextCategorical(const std::vector<double>& weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[NextBounded(i)]);
    }
  }

  /// Reservoir-sample k items from [0, n). Returned indices are unsorted.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool has_gauss_ = false;
  double gauss_ = 0.0;
};

}  // namespace ie
