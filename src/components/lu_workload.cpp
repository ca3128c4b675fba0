#include "components/lu_workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "components/lu_kernels.hpp"
#include "support/error.hpp"

namespace components {
namespace {

/// splitmix64 — counter-based, so any (seed, i, j) entry is recomputable
/// in isolation (the residual check regenerates original rows on demand).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

double lu_matrix_entry(std::uint64_t seed, int n, int i, int j) {
  const std::uint64_t h = mix64(seed ^ mix64(static_cast<std::uint64_t>(i) << 32 |
                                             static_cast<std::uint32_t>(j)));
  // Top 53 bits -> [0, 1), shifted to [-1, 1). Fully random, HPL-style:
  // the diagonal gets no boost, so partial pivoting carries the numerical
  // stability (and actually fires — the tests gate on row_swaps > 0).
  (void)n;
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0) * 2.0 - 1.0;
}

std::uint64_t lu_digest(const std::vector<double>& a) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double v : a) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

LuResult LuFactorComponent::factor(int n, int block, std::uint64_t seed) {
  CCAPERF_REQUIRE(n > 0, "LuFactorComponent: n must be positive");
  CCAPERF_REQUIRE(block > 0, "LuFactorComponent: block must be positive");
  const std::size_t nn = static_cast<std::size_t>(n);
  std::vector<double> a(nn * nn);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      a[static_cast<std::size_t>(i) * nn + j] = lu_matrix_entry(seed, n, i, j);

  std::vector<int> perm(nn);  // perm[i] = original row now living at row i
  for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;

  const detail::LuKernels& kern = detail::lu_kernels();
  LuResult r;
  // Blocked right-looking LU with partial pivoting, factoring in place:
  // L strictly below the diagonal (unit diagonal implied), U on and above.
  for (int k0 = 0; k0 < n; k0 += block) {
    const int k1 = std::min(k0 + block, n);
    // Panel factorization (unblocked) over columns [k0, k1).
    for (int k = k0; k < k1; ++k) {
      int piv = k;
      double best = std::fabs(a[static_cast<std::size_t>(k) * nn + k]);
      for (int i = k + 1; i < n; ++i) {
        const double v = std::fabs(a[static_cast<std::size_t>(i) * nn + k]);
        if (v > best) {
          best = v;
          piv = i;
        }
      }
      CCAPERF_REQUIRE(best > 0.0, "LuFactorComponent: singular pivot");
      if (piv != k) {
        for (int j = 0; j < n; ++j)
          std::swap(a[static_cast<std::size_t>(k) * nn + j],
                    a[static_cast<std::size_t>(piv) * nn + j]);
        std::swap(perm[static_cast<std::size_t>(k)],
                  perm[static_cast<std::size_t>(piv)]);
        ++r.row_swaps;
      }
      const double dk = a[static_cast<std::size_t>(k) * nn + k];
      for (int i = k + 1; i < n; ++i) {
        double& lik = a[static_cast<std::size_t>(i) * nn + k];
        lik /= dk;
        // Update only the rest of the panel; the trailing matrix is
        // updated blockwise below.
        for (int j = k + 1; j < k1; ++j)
          a[static_cast<std::size_t>(i) * nn + j] -=
              lik * a[static_cast<std::size_t>(k) * nn + j];
      }
    }
    if (k1 >= n) break;
    // Triangular solve U12 = L11^{-1} * A12 (unit-lower, in place), row by
    // row: row i subtracts the finished rows [k0, i) above it.
    for (int i = k0 + 1; i < k1; ++i)
      kern.update(a.data(), nn, i, i + 1, k0, i, k1, n);
    // Trailing update: A22 -= L21 * U12 (the GEMM that dominates HPL).
    kern.update(a.data(), nn, k1, n, k0, k1, k1, n);
  }

  // Residual check on sampled rows: (PA)[i][:] vs (L*U)[i][:], with A
  // regenerated from the seed — catches wrong math, not just nondeterminism.
  std::vector<double> lu(nn);
  const int stride = std::max(1, n / 8);
  for (int i = 0; i < n; i += stride) {
    kern.residual_row(a.data(), nn, n, i, lu.data());
    for (int j = 0; j < n; ++j) {
      const double pa =
          lu_matrix_entry(seed, n, perm[static_cast<std::size_t>(i)], j);
      r.residual_max = std::max(r.residual_max,
                                std::fabs(pa - lu[static_cast<std::size_t>(j)]));
    }
  }

  r.digest = lu_digest(a);
  const double dn = static_cast<double>(n);
  r.flops = static_cast<std::uint64_t>(2.0 * dn * dn * dn / 3.0);
  return r;
}

}  // namespace components
