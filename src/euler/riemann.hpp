#pragma once
// Exact Riemann solver for the Euler equations (Toro's two-shock/
// two-rarefaction iteration, generalized to a different gamma per side —
// needed at the Air/Freon interface).
//
// This powers GodunovFlux. The pressure iteration is Newton-Raphson and
// its iteration count is *data dependent* (strong jumps take more
// iterations) — the mechanism behind the paper's observation that
// GodunovFlux "involves an internal iterative solution for every element
// of the data array", producing a standard deviation that grows with
// array size (Fig. 7).
//
// pow(1, y) is never called: it is 1 for every y (C Annex F), and on a
// face with pL == pR and uL == uR (uniform flow, contacts) every pressure
// ratio the solver raises to a power is exactly 1.0. Outputs, iteration
// counts and the modelled flops are unchanged (DESIGN.md §11), but
// Godunov's wall time per face now also depends on the share of such
// faces, not only on the jump strengths: most faces of an AMR patch are
// such faces, almost none of a synthetic Q-sweep patch are.

#include "euler/state.hpp"

namespace euler {

struct RiemannResult {
  Prim sampled;     ///< state on the interface (x/t = 0)
  double p_star;    ///< star-region pressure
  double u_star;    ///< star-region velocity
  int iterations;   ///< Newton iterations used
};

struct RiemannParams {
  double tol = 1e-8;
  int max_iter = 40;
};

/// Solves the 1-D Riemann problem with left/right states given in the
/// *face-normal* frame (u = normal velocity, v = transverse, advected).
/// gammaL/gammaR are evaluated from each side's phi.
RiemannResult exact_riemann(const Prim& left, const Prim& right,
                            const GasModel& gas,
                            const RiemannParams& params = {});

}  // namespace euler
