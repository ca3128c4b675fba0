#pragma once
// Width-generic bodies of the LU factorization's O(n³) loops, instantiated
// at W=2 (baseline ISA, lu_kernels.cpp), W=4 (AVX2) and W=8 (AVX-512) by
// the per-ISA translation units. GCC/Clang vector extensions, as in
// euler/kernels_simd_impl.hpp: one template, the TU's -m flags pick the
// instruction set.
//
// BIT-EXACTNESS CONTRACT (DESIGN.md §11): every matrix element sees the
// same sequence of correctly rounded operations as the plain triple loop —
//  * update: a[i][j] = a[i][j] - a[i][k] * a[k][j] for k ascending, one
//    multiply and one subtract per step;
//  * residual row: lu[j] = 0.0 + l[k] * a[k][j] for k ascending;
//  * no FMA contraction (ccaperf_components compiles with
//    -ffp-contract=off), so a packed lane rounds exactly like the scalar
//    tail code.
// Tiling only changes which elements are in flight together, never the
// per-element order, so digests, row swaps and residuals are the same at
// every width.
//
// Everything here is a template on W: each width is instantiated in
// exactly one TU, so no inline body compiled with -mavx512f can be picked
// by the linker for a baseline caller.

#include <cstddef>

#include "components/lu_kernels.hpp"

namespace components::detail {

template <int W>
struct LuVec;
template <>
struct LuVec<2> {
  typedef double V __attribute__((vector_size(16)));
};
template <>
struct LuVec<4> {
  typedef double V __attribute__((vector_size(32)));
};
template <>
struct LuVec<8> {
  typedef double V __attribute__((vector_size(64)));
};

template <int W>
using LuV = typename LuVec<W>::V;

template <int W>
inline LuV<W> lu_bc(double x) {
  LuV<W> v;
  for (int l = 0; l < W; ++l) v[l] = x;
  return v;
}

template <int W>
inline LuV<W> lu_load(const double* p) {
  LuV<W> v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

template <int W>
inline void lu_store(double* p, LuV<W> v) {
  __builtin_memcpy(p, &v, sizeof v);
}

/// One tile row set: rows [i, i+R) × columns [c0, c1), k over [k0, k1).
/// The accumulators (R rows × V vectors of W) stay in registers across the
/// whole k-loop; U rows are loaded once per k and shared by the R rows.
/// The unroll pragmas are load-bearing: at -O2 GCC only fully unrolls
/// loops that do not grow the code, and a rolled loop leaves c[][] in
/// memory (the trailing update runs ~2x slower).
template <int W, int R, int V>
inline void lu_tile(double* a, std::size_t lda, int i, int k0, int k1, int j) {
  double* row[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) row[r] = a + static_cast<std::size_t>(i + r) * lda;
  LuV<W> c[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) c[r][v] = lu_load<W>(row[r] + j + v * W);
  for (int k = k0; k < k1; ++k) {
    const double* u = a + static_cast<std::size_t>(k) * lda + j;
    LuV<W> uv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) uv[v] = lu_load<W>(u + v * W);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const LuV<W> l = lu_bc<W>(row[r][k]);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v) c[r][v] = c[r][v] - l * uv[v];
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) lu_store<W>(row[r] + j + v * W, c[r][v]);
}

/// Rows [i, i+R): full 2W-wide tiles, then one W-wide tile, then scalar
/// columns up to c1.
template <int W, int R>
inline void lu_rows(double* a, std::size_t lda, int i, int k0, int k1, int c0,
                    int c1) {
  int j = c0;
  for (; j + 2 * W <= c1; j += 2 * W) lu_tile<W, R, 2>(a, lda, i, k0, k1, j);
  if (j + W <= c1) {
    lu_tile<W, R, 1>(a, lda, i, k0, k1, j);
    j += W;
  }
  for (; j < c1; ++j)
    for (int r = 0; r < R; ++r) {
      double* ar = a + static_cast<std::size_t>(i + r) * lda;
      double s = ar[j];
      for (int k = k0; k < k1; ++k)
        s = s - ar[k] * a[static_cast<std::size_t>(k) * lda + j];
      ar[j] = s;
    }
}

template <int W>
void lu_update_vec(double* a, std::size_t lda, int r0, int r1, int k0, int k1,
                   int c0, int c1) {
  constexpr int R = 4;
  int i = r0;
  for (; i + R <= r1; i += R) lu_rows<W, R>(a, lda, i, k0, k1, c0, c1);
  for (; i < r1; ++i) lu_rows<W, 1>(a, lda, i, k0, k1, c0, c1);
}

template <int W>
void lu_residual_row_vec(const double* a, std::size_t lda, int n, int i,
                         double* lu) {
  for (int j = 0; j < n; ++j) lu[j] = 0.0;
  const double* ai = a + static_cast<std::size_t>(i) * lda;
  for (int k = 0; k <= i; ++k) {
    const double l = k == i ? 1.0 : ai[k];  // unit diagonal of L
    const double* u = a + static_cast<std::size_t>(k) * lda;
    const LuV<W> lv = lu_bc<W>(l);
    int j = k;  // U is upper triangular: row k starts at column k
    for (; j + W <= n; j += W)
      lu_store<W>(lu + j, lu_load<W>(lu + j) + lv * lu_load<W>(u + j));
    for (; j < n; ++j) lu[j] = lu[j] + l * u[j];
  }
}

template <int W>
constexpr LuKernels make_lu_kernels() {
  return {&lu_update_vec<W>, &lu_residual_row_vec<W>};
}

}  // namespace components::detail
