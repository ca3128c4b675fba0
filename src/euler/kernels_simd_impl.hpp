#pragma once
// Width-generic SIMD bodies of the States and EFM sweep kernels plus the
// RK2 update loops, instantiated at W=4 (AVX2) and W=8 (AVX-512) by the
// per-ISA translation units. Built on GCC/Clang vector extensions so one
// template serves every ISA; the TU's -m flags pick the instruction set.
//
// BIT-EXACTNESS CONTRACT (DESIGN.md §11): every lane evaluates exactly the
// expression DAG of the scalar reference in kernels_ranges.hpp —
//  * same operand order and associativity in every expression;
//  * IEEE add/sub/mul/div/sqrt are correctly rounded, so the packed forms
//    equal the scalar forms bit for bit;
//  * no FMA contraction (these TUs compile with -ffp-contract=off —
//    a contracted a*b+c would round once instead of twice);
//  * erf/exp go through the same scalar libm call per lane;
//  * branches (minmod, the phi clamp) become compare+blend, which selects
//    between the identical candidate values.
// Probe replay: traced instantiations issue the probe calls of exactly one
// scalar face at a time, in scalar face order, so CacheSim counters are
// bit-identical to the scalar kernel. For NullProbe the replay loop
// compiles away (kCounting is false).

#include <cmath>
#include <cstring>

#include "euler/kernels_ranges.hpp"

// Internal linkage (unnamed namespace), as in kernels_ranges.hpp: each
// per-ISA TU keeps its own copies.
namespace euler::detail {
namespace {

template <int W>
struct VecTypes;
template <>
struct VecTypes<4> {
  typedef double V __attribute__((vector_size(32)));
  typedef long long M __attribute__((vector_size(32)));
};
template <>
struct VecTypes<8> {
  typedef double V __attribute__((vector_size(64)));
  typedef long long M __attribute__((vector_size(64)));
};

template <int W>
using Vec = typename VecTypes<W>::V;
template <int W>
using Mask = typename VecTypes<W>::M;

template <int W>
inline Vec<W> vbc(double x) {
  Vec<W> v;
  for (int l = 0; l < W; ++l) v[l] = x;
  return v;
}

/// Unaligned contiguous load (compiles to one vmovupd).
template <int W>
inline Vec<W> vloadu(const double* p) {
  Vec<W> v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

template <int W>
inline void vstoreu(double* p, Vec<W> v) {
  __builtin_memcpy(p, &v, sizeof v);
}

/// Strided gather: lane l reads p[l * stride] (stride in doubles).
template <int W>
inline Vec<W> vgather(const double* p, std::ptrdiff_t stride) {
  Vec<W> v;
  for (int l = 0; l < W; ++l) v[l] = p[l * stride];
  return v;
}

/// Blend: lane l gets a[l] where m[l] is all-ones (a vector comparison
/// result), else b[l]. Pure bit ops — exact.
template <int W>
inline Vec<W> vselect(Mask<W> m, Vec<W> a, Vec<W> b) {
  return (Vec<W>)((m & (Mask<W>)a) | (~m & (Mask<W>)b));
}

/// |x| by clearing the sign bit — identical to std::abs on every lane.
template <int W>
inline Vec<W> vabs(Vec<W> x) {
  Mask<W> m;
  for (int l = 0; l < W; ++l) m[l] = 0x7fffffffffffffffLL;
  return (Vec<W>)((Mask<W>)x & m);
}

/// Correctly rounded per IEEE-754, so packed == scalar bit for bit.
template <int W>
inline Vec<W> vsqrt(Vec<W> x) {
  Vec<W> r;
  for (int l = 0; l < W; ++l) r[l] = std::sqrt(x[l]);
  return r;
}

// erf/exp are NOT correctly-rounded vector primitives anywhere — a packed
// polynomial would diverge from libm in the last ulp and break the
// bit-exactness contract, so each lane makes the scalar libm call.
template <int W>
inline Vec<W> verf(Vec<W> x) {
  Vec<W> r;
  for (int l = 0; l < W; ++l) r[l] = std::erf(x[l]);
  return r;
}

template <int W>
inline Vec<W> vexp(Vec<W> x) {
  Vec<W> r;
  for (int l = 0; l < W; ++l) r[l] = std::exp(x[l]);
  return r;
}

/// Lane-wise detail::minmod: same products, same comparisons, blended.
template <int W>
inline Vec<W> vminmod(Vec<W> a, Vec<W> b) {
  const Vec<W> zero = vbc<W>(0.0);
  const Vec<W> pick = vselect<W>(vabs<W>(a) < vabs<W>(b), a, b);
  return vselect<W>(a * b <= zero, zero, pick);
}

template <int W>
struct PrimV {
  Vec<W> rho, u, v, p, phi;
};

/// Lane-wise GasModel::gamma_of (clamp via blends).
template <int W>
inline Vec<W> vgamma_of(const GasModel& gas, Vec<W> phi) {
  const Vec<W> zero = vbc<W>(0.0), one = vbc<W>(1.0);
  const Vec<W> f =
      vselect<W>(phi < zero, zero, vselect<W>(phi > one, one, phi));
  const Vec<W> inv = f / vbc<W>(gas.gamma1 - 1.0) +
                     (one - f) / vbc<W>(gas.gamma2 - 1.0);
  return one + one / inv;
}

/// Lane-wise cons_to_prim over gathered component vectors.
template <int W>
inline PrimV<W> vcons_to_prim(const Vec<W> q[kNcomp], const GasModel& gas) {
  PrimV<W> w;
  w.rho = q[kRho];
  const Vec<W> inv_rho = vbc<W>(1.0) / w.rho;
  w.u = q[kMx] * inv_rho;
  w.v = q[kMy] * inv_rho;
  w.phi = q[kRphi] * inv_rho;
  const Vec<W> gamma = vgamma_of<W>(gas, w.phi);
  const Vec<W> kinetic = vbc<W>(0.5) * w.rho * (w.u * w.u + w.v * w.v);
  w.p = (gamma - vbc<W>(1.0)) * (q[kE] - kinetic);
  return w;
}

// --- States (MUSCL reconstruction) -------------------------------------------

template <int W, class Probe>
KernelCounts states_range_vec(const amr::PatchData<double>& U,
                              const amr::Box& interior, Dir dir,
                              const GasModel& gas, Array2& left, Array2& right,
                              Probe& probe, int o_begin, int o_end) {
  const int nx = left.nx(), ny = left.ny();
  const int inner = dir == Dir::x ? nx : ny;
  const int di = dir == Dir::x ? 1 : 0;
  const int dj = 1 - di;
  const std::ptrdiff_t urow = U.row_stride();
  // Lane strides (in doubles): where face f+1 sits relative to face f.
  const std::ptrdiff_t face_lane =
      dir == Dir::x ? kNcomp : static_cast<std::ptrdiff_t>(nx) * kNcomp;
  const std::ptrdiff_t load_stride =
      (dir == Dir::x ? 1 : U.row_stride()) *
      static_cast<std::ptrdiff_t>(sizeof(double));
  const std::ptrdiff_t face_comp = comp_stride_bytes(left);
  KernelCounts counts;

  for (int o = o_begin; o < o_end; ++o) {
    int f = 0;
    for (; f + W <= inner; f += W) {
      const int fi0 = dir == Dir::x ? f : o;
      const int fj0 = dir == Dir::x ? o : f;
      const int i0 = interior.lo().i + fi0;
      const int j0 = interior.lo().j + fj0;
      const int im2 = i0 - 2 * di;
      const int jm2 = j0 - 2 * dj;

      // Primitive stencil: one vector per (stencil cell k, component),
      // lane l holding face f+l — load_prim_stencil, W faces at a time.
      Vec<W> w[4][kNcomp];
      for (int k = 0; k < 4; ++k) {
        Vec<W> q[kNcomp];
        for (int c = 0; c < kNcomp; ++c) {
          const double* base = &U(im2 + k * di, jm2 + k * dj, c);
          q[c] = dir == Dir::x ? vloadu<W>(base) : vgather<W>(base, urow);
        }
        const PrimV<W> p = vcons_to_prim<W>(q, gas);
        w[k][0] = p.rho;
        w[k][1] = dir == Dir::x ? p.u : p.v;
        w[k][2] = dir == Dir::x ? p.v : p.u;
        w[k][3] = p.p;
        w[k][4] = p.phi;
      }

      for (int c = 0; c < kNcomp; ++c) {
        const Vec<W> dm = w[2][c] - w[1][c];
        const Vec<W> sl = vminmod<W>(w[1][c] - w[0][c], dm);
        const Vec<W> sr = vminmod<W>(dm, w[3][c] - w[2][c]);
        const Vec<W> lv = w[1][c] + vbc<W>(0.5) * sl;
        const Vec<W> rv = w[2][c] - vbc<W>(0.5) * sr;
        double* lp = &left(fi0, fj0, c);
        double* rp = &right(fi0, fj0, c);
        for (int l = 0; l < W; ++l) {
          lp[l * face_lane] = lv[l];
          rp[l * face_lane] = rv[l];
        }
      }

      // Traced runs replay each face's probe sequence in scalar order
      // (addresses only — the math above already produced the values).
      // Per face that is kNcomp stencil load runs of 4 elements plus two
      // face store runs; when the simulator's sampling gate would reject
      // the whole group, skip_runs tallies the identical event totals in
      // one step instead (the replay loop is pure overhead then).
      if constexpr (Probe::kCounting) {
        if (!probe.skip_runs((kNcomp + 2) * static_cast<std::uint64_t>(W),
                             4ull * kNcomp * W, 2ull * kNcomp * W,
                             static_cast<std::uint64_t>(W) *
                                 (4 * 18 + 8 * kNcomp))) {
          for (int l = 0; l < W; ++l) {
            const int fi = fi0 + l * di, fj = fj0 + l * dj;
            const int li = im2 + l * di, lj = jm2 + l * dj;
            for (int c = 0; c < kNcomp; ++c)
              probe.load_run(&U(li, lj, c), load_stride, 4, sizeof(double));
            for (int k = 0; k < 4; ++k) probe.flops(18);
            probe.store_run(left.addr(fi, fj, 0), face_comp, kNcomp,
                            sizeof(double));
            probe.store_run(right.addr(fi, fj, 0), face_comp, kNcomp,
                            sizeof(double));
            probe.flops(8 * kNcomp);
          }
        }
      }
      counts.faces += W;
    }
    // Remainder faces: the scalar reference, same values and probe order.
    for (; f < inner; ++f) {
      const int fi = dir == Dir::x ? f : o;
      const int fj = dir == Dir::x ? o : f;
      reconstruct_one_face(U, dir, gas, left, right, probe, fi, fj,
                           interior.lo().i + fi, interior.lo().j + fj);
      ++counts.faces;
    }
  }
  return counts;
}

// --- EFM flux ----------------------------------------------------------------

template <int W>
struct FaceFluxV {
  Vec<W> mass, mom_n, mom_t, energy, phi_mass;
};

/// Lane-wise detail::efm_half_flux; `sign` is the scalar ±1.0.
template <int W>
inline void vefm_half_flux(const PrimV<W>& w, Vec<W> gamma, double sign,
                           FaceFluxV<W>& f) {
  const Vec<W> sg = vbc<W>(sign);
  const Vec<W> theta = w.p / w.rho;
  const Vec<W> inv_sqrt_2theta =
      vbc<W>(1.0) / vsqrt<W>(vbc<W>(2.0) * theta);
  const Vec<W> s = w.u * inv_sqrt_2theta;
  const Vec<W> A = vbc<W>(0.5) * (vbc<W>(1.0) + sg * verf<W>(s));
  const Vec<W> G = vsqrt<W>(theta / vbc<W>(2.0 * M_PI)) *
                   vexp<W>(-w.u * w.u / (vbc<W>(2.0) * theta));

  const Vec<W> mass = w.rho * (w.u * A + sg * G);
  const Vec<W> mom = w.rho * ((w.u * w.u + theta) * A + sg * w.u * G);
  const Vec<W> e_rest = theta / (gamma - vbc<W>(1.0)) - vbc<W>(0.5) * theta +
                        vbc<W>(0.5) * w.v * w.v;
  const Vec<W> energy =
      vbc<W>(0.5) * w.rho *
          ((w.u * w.u * w.u + vbc<W>(3.0) * w.u * theta) * A +
           sg * (w.u * w.u + vbc<W>(2.0) * theta) * G) +
      e_rest * mass;

  f.mass += mass;
  f.mom_n += mom;
  f.mom_t += w.v * mass;
  f.energy += energy;
  f.phi_mass += w.phi * mass;
}

template <int W, class Probe>
KernelCounts efm_range_vec(const Array2& left, const Array2& right, Dir dir,
                           const GasModel& gas, Array2& flux, Probe& probe,
                           int o_begin, int o_end) {
  const int nx = left.nx(), ny = left.ny();
  const int inner = dir == Dir::x ? nx : ny;
  const int di = dir == Dir::x ? 1 : 0;
  const int dj = 1 - di;
  // Faces are kNcomp apart along fi and nx*kNcomp apart along fj, so the
  // lane loads are gathers in both directions (components are innermost).
  const std::ptrdiff_t face_lane =
      dir == Dir::x ? kNcomp : static_cast<std::ptrdiff_t>(nx) * kNcomp;
  const std::ptrdiff_t face_comp = comp_stride_bytes(left);
  KernelCounts counts;

  auto gather_prim = [&](const Array2& a, int fi0, int fj0) {
    PrimV<W> w;
    w.rho = vgather<W>(a.addr(fi0, fj0, 0), face_lane);
    w.u = vgather<W>(a.addr(fi0, fj0, 1), face_lane);
    w.v = vgather<W>(a.addr(fi0, fj0, 2), face_lane);
    w.p = vgather<W>(a.addr(fi0, fj0, 3), face_lane);
    w.phi = vgather<W>(a.addr(fi0, fj0, 4), face_lane);
    return w;
  };

  for (int o = o_begin; o < o_end; ++o) {
    int f = 0;
    for (; f + W <= inner; f += W) {
      const int fi0 = dir == Dir::x ? f : o;
      const int fj0 = dir == Dir::x ? o : f;
      const PrimV<W> l = gather_prim(left, fi0, fj0);
      const PrimV<W> r = gather_prim(right, fi0, fj0);

      FaceFluxV<W> ff;
      ff.mass = ff.mom_n = ff.mom_t = ff.energy = ff.phi_mass = vbc<W>(0.0);
      vefm_half_flux<W>(l, vgamma_of<W>(gas, l.phi), +1.0, ff);
      vefm_half_flux<W>(r, vgamma_of<W>(gas, r.phi), -1.0, ff);

      for (int l2 = 0; l2 < W; ++l2) {
        double* fp = &flux(fi0 + l2 * di, fj0 + l2 * dj, 0);
        fp[0] = ff.mass[l2];
        fp[1] = ff.mom_n[l2];
        fp[2] = ff.mom_t[l2];
        fp[3] = ff.energy[l2];
        fp[4] = ff.phi_mass[l2];
      }

      // Per face: two state load runs + one flux store run; bulk-skip the
      // group when the sampling gate would reject every batch (see
      // states_range_vec).
      if constexpr (Probe::kCounting) {
        if (!probe.skip_runs(3ull * W, 2ull * kNcomp * W,
                             static_cast<std::uint64_t>(kNcomp) * W,
                             static_cast<std::uint64_t>(kEfmFlopsPerFace) * W)) {
          for (int l2 = 0; l2 < W; ++l2) {
            const int fi = fi0 + l2 * di, fj = fj0 + l2 * dj;
            probe.load_run(left.addr(fi, fj, 0), face_comp, kNcomp,
                           sizeof(double));
            probe.load_run(right.addr(fi, fj, 0), face_comp, kNcomp,
                           sizeof(double));
            probe.flops(kEfmFlopsPerFace);
            probe.store_run(flux.addr(fi, fj, 0), face_comp, kNcomp,
                            sizeof(double));
          }
        }
      }
      counts.faces += W;
    }
    for (; f < inner; ++f) {
      const int fi = dir == Dir::x ? f : o;
      const int fj = dir == Dir::x ? o : f;
      efm_one_face(left, right, dir, gas, flux, probe, fi, fj);
      ++counts.faces;
    }
  }
  return counts;
}

// --- RK2 update loops --------------------------------------------------------

/// y[i] += a * x[i] over one contiguous row (RK2 stage 1).
template <int W>
void rk2_axpy_vec(double* y, const double* x, double a, std::size_t n) {
  const Vec<W> av = vbc<W>(a);
  std::size_t k = 0;
  for (; k + W <= n; k += W)
    vstoreu<W>(y + k, vloadu<W>(y + k) + av * vloadu<W>(x + k));
  for (; k < n; ++k) y[k] += a * x[k];
}

/// u[i] = 0.5 * (u_old[i] + u[i] + dt * dudt[i]) (RK2 Heun average).
template <int W>
void rk2_heun_vec(double* u, const double* u_old, const double* dudt,
                  double dt, std::size_t n) {
  const Vec<W> half = vbc<W>(0.5), dtv = vbc<W>(dt);
  std::size_t k = 0;
  for (; k + W <= n; k += W)
    vstoreu<W>(u + k, half * (vloadu<W>(u_old + k) + vloadu<W>(u + k) +
                              dtv * vloadu<W>(dudt + k)));
  for (; k < n; ++k) u[k] = 0.5 * (u_old[k] + u[k] + dt * dudt[k]);
}

}  // namespace
}  // namespace euler::detail
