#pragma once
// Scalar reference implementations of the sweep kernels over outer-index
// ranges, shared between kernels.cpp (the dispatch layer and the scalar
// ISA level) and the per-ISA SIMD translation units (which fall back to
// the per-face scalar routines for vector-remainder faces). Everything
// here is THE bit-exactness reference: the vector kernels must reproduce
// these expressions lane for lane, and must issue the probe calls of
// `reconstruct_one_face` / `efm_one_face` in exactly this per-face order
// so traced cache counters stay bit-identical across ISA levels.

#include <cmath>

#include "euler/kernels.hpp"

// Internal linkage (unnamed namespace): the per-ISA TUs instantiate these
// templates too, with the traced cache-sim lookup inlined for their ISA,
// and a shared copy built for AVX-512 must never be the one a baseline TU
// links against. Every TU keeps its own copy instead.
namespace euler::detail {
namespace {

inline double minmod(double a, double b) {
  if (a * b <= 0.0) return 0.0;
  return std::abs(a) < std::abs(b) ? a : b;
}

/// Byte stride between consecutive components of one face of an Array2
/// (contiguous in the component-innermost layout).
inline std::ptrdiff_t comp_stride_bytes(const Array2& a) {
  return a.comp_stride() * static_cast<std::ptrdiff_t>(sizeof(double));
}

/// Gathers the four stencil cells around a face (k = -2..+1 along `dir`)
/// as primitive quintuples in the face-normal frame: w[k] = (rho, u_n,
/// u_t, p, phi). The four reads per component form one strided run — unit
/// stride for X sweeps — probed through the batched cache-sim API.
template <class Probe>
inline void load_prim_stencil(const amr::PatchData<double>& U, int i0, int j0,
                              Dir dir, const GasModel& gas, Probe& probe,
                              double w[4][kNcomp]) {
  const int di = dir == Dir::x ? 1 : 0;
  const int dj = dir == Dir::x ? 0 : 1;
  const int im2 = i0 - 2 * di;
  const int jm2 = j0 - 2 * dj;
  const std::ptrdiff_t stride = (dir == Dir::x ? 1 : U.row_stride()) *
                                static_cast<std::ptrdiff_t>(sizeof(double));
  for (int c = 0; c < kNcomp; ++c)
    probe.load_run(&U(im2, jm2, c), stride, 4, sizeof(double));
  for (int k = 0; k < 4; ++k) {
    double q[kNcomp];
    for (int c = 0; c < kNcomp; ++c) q[c] = U(im2 + k * di, jm2 + k * dj, c);
    const Prim p = cons_to_prim(q, gas);
    probe.flops(18);  // conversion cost (divides, gamma closure)
    w[k][0] = p.rho;
    w[k][1] = dir == Dir::x ? p.u : p.v;
    w[k][2] = dir == Dir::x ? p.v : p.u;
    w[k][3] = p.p;
    w[k][4] = p.phi;
  }
}

/// Span of the sweep's OUTER loop in direction `dir`: rows (fj) for
/// Dir::x, columns (fi) for Dir::y — the loop whose iterations are
/// independent and can be split across lanes or counter shards.
inline int outer_extent(int nx, int ny, Dir dir) {
  return dir == Dir::x ? ny : nx;
}

/// MUSCL reconstruction of one face — the scalar reference the vector
/// kernels mirror, and the remainder path they call directly.
template <class Probe>
inline void reconstruct_one_face(const amr::PatchData<double>& U, Dir dir,
                                 const GasModel& gas, Array2& left,
                                 Array2& right, Probe& probe, int fi, int fj,
                                 int i0, int j0) {
  // w[k]: primitive states at the four stencil cells around a face (face
  // between cell -1 and cell 0 of the local numbering, k = -2..+1 mapped
  // to 0..3).
  double w[4][kNcomp];
  const std::ptrdiff_t face_comp = comp_stride_bytes(left);
  load_prim_stencil(U, i0, j0, dir, gas, probe, w);
  for (int c = 0; c < kNcomp; ++c) {
    const double sl = minmod(w[1][c] - w[0][c], w[2][c] - w[1][c]);
    const double sr = minmod(w[2][c] - w[1][c], w[3][c] - w[2][c]);
    left(fi, fj, c) = w[1][c] + 0.5 * sl;
    right(fi, fj, c) = w[2][c] - 0.5 * sr;
  }
  probe.store_run(left.addr(fi, fj, 0), face_comp, kNcomp, sizeof(double));
  probe.store_run(right.addr(fi, fj, 0), face_comp, kNcomp, sizeof(double));
  probe.flops(8 * kNcomp);
}

/// Reconstruction over outer indices [o_begin, o_end); the full-span call
/// is the original serial kernel, a sub-span is one lane's (or one counter
/// shard's) slice. Shape checks are the caller's job.
template <class Probe>
KernelCounts states_range_scalar(const amr::PatchData<double>& U,
                                 const amr::Box& interior, Dir dir,
                                 const GasModel& gas, Array2& left,
                                 Array2& right, Probe& probe, int o_begin,
                                 int o_end) {
  const int nx = left.nx(), ny = left.ny();
  KernelCounts counts;
  if (dir == Dir::x) {
    // Sequential mode: inner loop is unit stride in memory.
    for (int fj = o_begin; fj < o_end; ++fj) {
      const int j = interior.lo().j + fj;
      for (int fi = 0; fi < nx; ++fi) {
        reconstruct_one_face(U, dir, gas, left, right, probe, fi, fj,
                             interior.lo().i + fi, j);
        ++counts.faces;
      }
    }
  } else {
    // Strided mode: inner loop strides by the padded row length.
    for (int fi = o_begin; fi < o_end; ++fi) {
      const int i = interior.lo().i + fi;
      for (int fj = 0; fj < ny; ++fj) {
        reconstruct_one_face(U, dir, gas, left, right, probe, fi, fj, i,
                             interior.lo().j + fj);
        ++counts.faces;
      }
    }
  }
  return counts;
}

/// Reads the 5 primitive face components, probed as one contiguous run.
template <class Probe>
inline Prim load_face_state(const Array2& a, int fi, int fj, Probe& probe) {
  probe.load_run(a.addr(fi, fj, 0), comp_stride_bytes(a), kNcomp, sizeof(double));
  Prim w;
  w.rho = a(fi, fj, 0);
  w.u = a(fi, fj, 1);  // face-normal frame
  w.v = a(fi, fj, 2);
  w.p = a(fi, fj, 3);
  w.phi = a(fi, fj, 4);
  return w;
}

template <class Probe>
inline void store_face_flux(Array2& flux, int fi, int fj, const FaceFlux& f,
                            Probe& probe) {
  flux(fi, fj, 0) = f.mass;
  flux(fi, fj, 1) = f.mom_n;
  flux(fi, fj, 2) = f.mom_t;
  flux(fi, fj, 3) = f.energy;
  flux(fi, fj, 4) = f.phi_mass;
  probe.store_run(flux.addr(fi, fj, 0), comp_stride_bytes(flux), kNcomp,
                  sizeof(double));
}

/// Shared sweep driver: walks faces of the outer span [o_begin, o_end) in
/// the direction-appropriate loop order and applies `face_op(fi, fj)`.
template <class FaceOp>
void sweep_faces(const Array2& left, Dir dir, int o_begin, int o_end,
                 FaceOp&& face_op) {
  if (dir == Dir::x) {
    for (int fj = o_begin; fj < o_end; ++fj)
      for (int fi = 0; fi < left.nx(); ++fi) face_op(fi, fj);
  } else {
    for (int fi = o_begin; fi < o_end; ++fi)
      for (int fj = 0; fj < left.ny(); ++fj) face_op(fi, fj);
  }
}

/// EFM flux of one face — scalar reference and vector-remainder path.
template <class Probe>
inline void efm_one_face(const Array2& left, const Array2& right, Dir,
                         const GasModel& gas, Array2& flux, Probe& probe,
                         int fi, int fj) {
  const Prim l = load_face_state(left, fi, fj, probe);
  const Prim r = load_face_state(right, fi, fj, probe);
  const FaceFlux f = efm_face_flux(l, r, gas);
  probe.flops(kEfmFlopsPerFace);  // two half-fluxes: erf + exp + moments
  store_face_flux(flux, fi, fj, f, probe);
}

template <class Probe>
KernelCounts efm_range_scalar(const Array2& left, const Array2& right, Dir dir,
                              const GasModel& gas, Array2& flux, Probe& probe,
                              int o_begin, int o_end) {
  KernelCounts counts;
  sweep_faces(left, dir, o_begin, o_end, [&](int fi, int fj) {
    efm_one_face(left, right, dir, gas, flux, probe, fi, fj);
    ++counts.faces;
  });
  return counts;
}

template <class Probe>
KernelCounts godunov_range_scalar(const Array2& left, const Array2& right,
                                  Dir dir, const GasModel& gas, Array2& flux,
                                  Probe& probe, int o_begin, int o_end) {
  KernelCounts counts;
  sweep_faces(left, dir, o_begin, o_end, [&](int fi, int fj) {
    const Prim l = load_face_state(left, fi, fj, probe);
    const Prim r = load_face_state(right, fi, fj, probe);
    const RiemannResult rr = exact_riemann(l, r, gas);
    const FaceFlux f = godunov_face_flux(rr.sampled, gas);
    counts.riemann_iterations += static_cast<std::uint64_t>(rr.iterations);
    probe.flops(kGodunovFlopsPerFace +
                kGodunovFlopsPerIteration *
                    static_cast<std::uint64_t>(rr.iterations));
    store_face_flux(flux, fi, fj, f, probe);
    ++counts.faces;
  });
  return counts;
}

}  // namespace
}  // namespace euler::detail
