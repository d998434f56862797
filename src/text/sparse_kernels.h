// Hot sparse arithmetic kernels over the structure-of-arrays layout
// (DESIGN.md §14): contiguous sorted uint32 id arrays + parallel float
// value arrays gathered against the dense double weight array.
//
// Determinism contract: every kernel accumulates into a single
// left-to-right double chain — no multi-accumulator reassociation — so
// results are bitwise identical to the scalar reference implementations
// (tests/sparse_kernel_test.cc proves this at float-bit granularity, and
// the golden-hash matrix pins it end-to-end). The wins come from the
// layout (one cache line holds 16 ids), hoisted bounds checks and unrolled
// gather loops — not from reordering math.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ie {
namespace kernels {

/// Number of leading entries of the ascending-sorted id array that fall
/// below `dim`. Hoists the per-entry `id < dim` bounds check out of the
/// gather loops: entries past the prefix contribute exactly 0 under the
/// grow-on-write weight semantics.
inline size_t BoundedPrefix(const uint32_t* ids, size_t n, size_t dim) {
  if (n == 0 || ids[n - 1] < dim) return n;
  size_t lo = 0;
  size_t hi = n;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (ids[mid] < dim) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Σ w[ids[i]] * vals[i] over entries with ids[i] < dim, in entry order.
inline double GatherDot(const double* w, size_t dim, const uint32_t* ids,
                        const float* vals, size_t n) {
  const size_t m = BoundedPrefix(ids, n, dim);
  double s = 0.0;
  size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    s += w[ids[i + 0]] * static_cast<double>(vals[i + 0]);
    s += w[ids[i + 1]] * static_cast<double>(vals[i + 1]);
    s += w[ids[i + 2]] * static_cast<double>(vals[i + 2]);
    s += w[ids[i + 3]] * static_cast<double>(vals[i + 3]);
  }
  for (; i < m; ++i) {
    s += w[ids[i]] * static_cast<double>(vals[i]);
  }
  return s;
}

/// w[ids[i]] += factor * vals[i] (ids must all be < dim; SparseVector ids
/// are unique, so the unrolled stores never alias).
inline void Axpy(double* w, double factor, const uint32_t* ids,
                 const float* vals, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    w[ids[i + 0]] += factor * static_cast<double>(vals[i + 0]);
    w[ids[i + 1]] += factor * static_cast<double>(vals[i + 1]);
    w[ids[i + 2]] += factor * static_cast<double>(vals[i + 2]);
    w[ids[i + 3]] += factor * static_cast<double>(vals[i + 3]);
  }
  for (; i < n; ++i) {
    w[ids[i]] += factor * static_cast<double>(vals[i]);
  }
}

/// Sorted-merge dot of two sparse vectors; matched products accumulate in
/// ascending id order.
inline double SparseSparseDot(const uint32_t* a_ids, const float* a_vals,
                              size_t a_n, const uint32_t* b_ids,
                              const float* b_vals, size_t b_n) {
  double s = 0.0;
  size_t ia = 0;
  size_t ib = 0;
  while (ia < a_n && ib < b_n) {
    const uint32_t da = a_ids[ia];
    const uint32_t db = b_ids[ib];
    if (da < db) {
      ++ia;
    } else if (db < da) {
      ++ib;
    } else {
      s += static_cast<double>(a_vals[ia]) * static_cast<double>(b_vals[ib]);
      ++ia;
      ++ib;
    }
  }
  return s;
}

}  // namespace kernels
}  // namespace ie
