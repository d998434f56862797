// The reference subsequence kernel — the oracle for
// SubsequenceKernelRelationExtractor's flat-scratch DP (DESIGN.md §19). It
// is the gap-weighted DP as it stood before the scratch: two nested
// vector<vector<double>> tables built on every call. The product kernel
// must match it bit for bit (KernelOracleTest in
// tests/relation_extractor_test.cc compares with memcmp). Header-only,
// like tests/learner_oracle.h. Its arithmetic is the reference: change it
// only together with the product code, operation for operation.
#pragma once

#include <cmath>
#include <utility>
#include <vector>

#include "extract/relation_extractor.h"

namespace ie::test {

/// K_p(a, b): common subsequences of length <= p, each weighted by
/// lam^(total spanned length).
inline double ReferenceRawKernel(const std::vector<TokenId>& a,
                                 const std::vector<TokenId>& b, double lam,
                                 size_t p) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return 0.0;
  std::vector<std::vector<double>> kpp_prev(n + 1,
                                            std::vector<double>(m + 1, 1.0));
  std::vector<std::vector<double>> kpp(n + 1, std::vector<double>(m + 1));
  double total = 0.0;
  for (size_t q = 1; q <= p; ++q) {
    double kq = 0.0;
    for (size_t i = 0; i <= n; ++i) kpp[i][0] = 0.0;
    for (size_t j = 0; j <= m; ++j) kpp[0][j] = 0.0;
    for (size_t i = 1; i <= n; ++i) {
      double kpps = 0.0;
      for (size_t j = 1; j <= m; ++j) {
        kpps = lam * kpps;
        if (a[i - 1] == b[j - 1]) {
          kpps += lam * lam * kpp_prev[i - 1][j - 1];
          kq += lam * lam * kpp_prev[i - 1][j - 1];
        }
        kpp[i][j] = lam * kpp[i - 1][j] + kpps;
      }
    }
    total += kq;
    std::swap(kpp, kpp_prev);
  }
  return total;
}

inline double ReferenceNormalizedKernel(const std::vector<TokenId>& a,
                                        const std::vector<TokenId>& b,
                                        double lam, size_t p) {
  const double kaa = ReferenceRawKernel(a, a, lam, p);
  const double kbb = ReferenceRawKernel(b, b, lam, p);
  if (kaa <= 0.0 || kbb <= 0.0) return 0.0;
  return ReferenceRawKernel(a, b, lam, p) / std::sqrt(kaa * kbb);
}

/// The trained extractor's margin for `seq`, with every kernel value —
/// the support vectors' self-kernels included — from the reference DP.
inline double ReferenceDecision(
    const SubsequenceKernelRelationExtractor& extractor,
    const std::vector<TokenId>& seq) {
  const double lam = extractor.options().decay;
  const size_t p = extractor.options().max_subseq_len;
  const double kss = ReferenceRawKernel(seq, seq, lam, p);
  if (kss <= 0.0) return extractor.bias();
  double f = extractor.bias();
  const auto& support = extractor.support_vectors();
  for (size_t i = 0; i < support.size(); ++i) {
    const double self = ReferenceRawKernel(support[i], support[i], lam, p);
    const double k =
        ReferenceRawKernel(support[i], seq, lam, p) / std::sqrt(self * kss);
    f += extractor.alphas()[i] * k;
  }
  return f;
}

}  // namespace ie::test
