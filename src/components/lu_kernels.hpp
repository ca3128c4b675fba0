#pragma once
// Private entry points of the LU factorization kernels (DESIGN.md §11).
// lu_kernels_impl.hpp holds the width-generic bodies; lu_kernels.cpp
// (baseline ISA), lu_kernels_avx2.cpp and lu_kernels_avx512.cpp each
// instantiate one width, and lu_kernels() picks the table for the ISA
// level euler::simd::active() reports — the same CCAPERF_SIMD dispatch
// the euler sweep kernels use.

#include <cstddef>

namespace components::detail {

struct LuKernels {
  /// Row-major matrix `a` with row stride `lda`: for every row i in
  /// [r0, r1) and column j in [c0, c1),
  ///   a[i][j] -= a[i][k] * a[k][j]   for k = k0, k0+1, ..., k1-1.
  /// The written block must not overlap rows [k0, k1) or columns
  /// [k0, k1). Rows below the panel (the trailing update) and, one row at
  /// a time with k1 = i, the panel rows (the U12 triangular solve).
  void (*update)(double* a, std::size_t lda, int r0, int r1, int k0, int k1,
                 int c0, int c1);
  /// lu[j] = Σ_{k ≤ min(i, j)} L[i][k] · U[k][j] for j in [0, n), from the
  /// in-place factors (unit diagonal of L implied), summed from 0.0 in
  /// ascending k.
  void (*residual_row)(const double* a, std::size_t lda, int n, int i,
                       double* lu);
};

/// The kernel table for the active ISA level.
const LuKernels& lu_kernels();

#if defined(CCAPERF_SIMD_AVX2)
const LuKernels& lu_kernels_avx2();
#endif
#if defined(CCAPERF_SIMD_AVX512)
const LuKernels& lu_kernels_avx512();
#endif

}  // namespace components::detail
