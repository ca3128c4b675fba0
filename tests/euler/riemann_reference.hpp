#pragma once
// Reference for the exact Riemann solver's pow(1, y) elision: a verbatim
// copy of euler::exact_riemann as it was before it (only `inline` and the
// namespace differ). The solver must match it bit for bit on every input:
// sampled state, p*, u* and iterations.

#include <algorithm>
#include <cmath>

#include "euler/riemann.hpp"
#include "support/error.hpp"

namespace riemann_reference {

using euler::GasModel;
using euler::Prim;
using euler::RiemannParams;
using euler::RiemannResult;

/// Toro's pressure function f_K(p) and derivative for one side.
inline void pressure_fn(double p, double rho, double pk, double a, double g,
                        double& f, double& fd) {
  if (p > pk) {
    // Shock branch.
    const double A = 2.0 / ((g + 1.0) * rho);
    const double B = (g - 1.0) / (g + 1.0) * pk;
    const double sqrt_term = std::sqrt(A / (B + p));
    f = (p - pk) * sqrt_term;
    fd = sqrt_term * (1.0 - 0.5 * (p - pk) / (B + p));
  } else {
    // Rarefaction branch.
    const double pr = p / pk;
    f = 2.0 * a / (g - 1.0) * (std::pow(pr, (g - 1.0) / (2.0 * g)) - 1.0);
    fd = std::pow(pr, -(g + 1.0) / (2.0 * g)) / (rho * a);
  }
}

inline RiemannResult exact_riemann(const Prim& left, const Prim& right,
                                   const GasModel& gas,
                                   const RiemannParams& params) {
  CCAPERF_REQUIRE(left.rho > 0.0 && right.rho > 0.0 && left.p > 0.0 && right.p > 0.0,
                  "exact_riemann: non-physical input state");
  const double gl = gas.gamma_of(left.phi);
  const double gr = gas.gamma_of(right.phi);
  const double al = std::sqrt(gl * left.p / left.rho);
  const double ar = std::sqrt(gr * right.p / right.rho);
  const double du = right.u - left.u;

  // PVRS initial guess, floored.
  double p = 0.5 * (left.p + right.p) -
             0.125 * du * (left.rho + right.rho) * (al + ar);
  p = std::max(p, 1e-12);

  int iter = 0;
  for (; iter < params.max_iter; ++iter) {
    double fl, fld, fr, frd;
    pressure_fn(p, left.rho, left.p, al, gl, fl, fld);
    pressure_fn(p, right.rho, right.p, ar, gr, fr, frd);
    const double delta = (fl + fr + du) / (fld + frd);
    const double pnew = std::max(p - delta, 1e-12);
    const double change = 2.0 * std::abs(pnew - p) / (pnew + p);
    p = pnew;
    if (change < params.tol) {
      ++iter;
      break;
    }
  }

  double fl, fld, fr, frd;
  pressure_fn(p, left.rho, left.p, al, gl, fl, fld);
  pressure_fn(p, right.rho, right.p, ar, gr, fr, frd);
  const double ustar = 0.5 * (left.u + right.u) + 0.5 * (fr - fl);

  // Sample at x/t = 0.
  Prim w;
  if (ustar >= 0.0) {
    // Interface lies left of the contact: use the left wave family.
    w.v = left.v;
    w.phi = left.phi;
    if (p > left.p) {
      // Left shock.
      const double ratio = p / left.p;
      const double sl =
          left.u - al * std::sqrt((gl + 1.0) / (2.0 * gl) * ratio +
                                  (gl - 1.0) / (2.0 * gl));
      if (sl >= 0.0) {
        w = left;
      } else {
        const double gm = (gl - 1.0) / (gl + 1.0);
        w.rho = left.rho * (ratio + gm) / (gm * ratio + 1.0);
        w.u = ustar;
        w.p = p;
      }
    } else {
      // Left rarefaction.
      const double head = left.u - al;
      const double astar = al * std::pow(p / left.p, (gl - 1.0) / (2.0 * gl));
      const double tail = ustar - astar;
      if (head >= 0.0) {
        w = left;
      } else if (tail <= 0.0) {
        w.rho = left.rho * std::pow(p / left.p, 1.0 / gl);
        w.u = ustar;
        w.p = p;
      } else {
        // Inside the fan at x/t = 0.
        const double factor =
            2.0 / (gl + 1.0) + (gl - 1.0) / ((gl + 1.0) * al) * left.u;
        w.rho = left.rho * std::pow(factor, 2.0 / (gl - 1.0));
        w.u = 2.0 / (gl + 1.0) * (al + (gl - 1.0) / 2.0 * left.u);
        w.p = left.p * std::pow(factor, 2.0 * gl / (gl - 1.0));
      }
    }
  } else {
    // Right wave family.
    w.v = right.v;
    w.phi = right.phi;
    if (p > right.p) {
      // Right shock.
      const double ratio = p / right.p;
      const double sr =
          right.u + ar * std::sqrt((gr + 1.0) / (2.0 * gr) * ratio +
                                   (gr - 1.0) / (2.0 * gr));
      if (sr <= 0.0) {
        w = right;
      } else {
        const double gm = (gr - 1.0) / (gr + 1.0);
        w.rho = right.rho * (ratio + gm) / (gm * ratio + 1.0);
        w.u = ustar;
        w.p = p;
      }
    } else {
      // Right rarefaction.
      const double head = right.u + ar;
      const double astar = ar * std::pow(p / right.p, (gr - 1.0) / (2.0 * gr));
      const double tail = ustar + astar;
      if (head <= 0.0) {
        w = right;
      } else if (tail >= 0.0) {
        w.rho = right.rho * std::pow(p / right.p, 1.0 / gr);
        w.u = ustar;
        w.p = p;
      } else {
        const double factor =
            2.0 / (gr + 1.0) - (gr - 1.0) / ((gr + 1.0) * ar) * right.u;
        w.rho = right.rho * std::pow(factor, 2.0 / (gr - 1.0));
        w.u = 2.0 / (gr + 1.0) * (-ar + (gr - 1.0) / 2.0 * right.u);
        w.p = right.p * std::pow(factor, 2.0 * gr / (gr - 1.0));
      }
    }
  }

  return RiemannResult{w, p, ustar, iter};
}

}  // namespace riemann_reference
