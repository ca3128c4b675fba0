// Exact Riemann solver without pow(1, y) calls: every output bit must match
// the plain iteration, kept verbatim in riemann_reference.hpp, on the
// equal-p/u faces where the pow bases are 1.0 (uniform flow, contacts,
// signed-zero and supersonic velocities), on edge inputs (the pressure
// floor, overflowing sums, degenerate gammas, non-default solver
// parameters) and on random general states.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "euler/riemann.hpp"
#include "riemann_reference.hpp"

namespace {

using euler::GasModel;
using euler::Prim;
using euler::RiemannParams;

GasModel air_only() {
  GasModel gas;
  gas.gamma2 = 1.4;
  return gas;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bit_identical(const Prim& l, const Prim& r, const GasModel& gas,
                          const RiemannParams& params,
                          const std::string& what) {
  const auto got = euler::exact_riemann(l, r, gas, params);
  const auto want = riemann_reference::exact_riemann(l, r, gas, params);
  const double got_w[] = {got.sampled.rho, got.sampled.u, got.sampled.v,
                          got.sampled.p, got.sampled.phi};
  const double want_w[] = {want.sampled.rho, want.sampled.u, want.sampled.v,
                           want.sampled.p, want.sampled.phi};
  for (int c = 0; c < 5; ++c)
    EXPECT_EQ(bits(got_w[c]), bits(want_w[c]))
        << what << ": sampled component " << c << " " << got_w[c] << " vs "
        << want_w[c];
  EXPECT_EQ(bits(got.p_star), bits(want.p_star)) << what << ": p_star";
  EXPECT_EQ(bits(got.u_star), bits(want.u_star))
      << what << ": u_star " << got.u_star << " vs " << want.u_star;
  EXPECT_EQ(got.iterations, want.iterations) << what << ": iterations";
}

void expect_bit_identical(const Prim& l, const Prim& r, const GasModel& gas,
                          const std::string& what) {
  expect_bit_identical(l, r, gas, RiemannParams{}, what);
}

TEST(RiemannExactness, UniformStates) {
  for (const GasModel& gas : {air_only(), GasModel{}}) {
    for (double u : {0.0, 0.3, -0.7, 1e-300, -2.5})
      for (double phi : {0.0, 0.5, 1.0}) {
        const Prim w{1.3, u, -0.2, 2.0, phi};
        expect_bit_identical(w, w, gas, "uniform u=" + std::to_string(u));
      }
  }
}

TEST(RiemannExactness, TwoGasContacts) {
  const GasModel gas;  // Air (phi = 1) against Freon (phi = 0)
  for (double u : {0.0, 0.25, -0.25}) {
    const Prim air{1.0, u, 0.1, 1.0, 1.0};
    const Prim freon{3.15, u, -0.3, 1.0, 0.0};
    expect_bit_identical(air, freon, gas, "air|freon");
    expect_bit_identical(freon, air, gas, "freon|air");
  }
}

TEST(RiemannExactness, SignedZeroVelocities) {
  const GasModel gas;
  const auto sign = [](double x) { return std::signbit(x) ? "-0" : "+0"; };
  for (double ul : {0.0, -0.0})
    for (double ur : {0.0, -0.0})
      for (double v : {0.0, -0.0}) {
        const Prim l{1.0, ul, v, 1.0, 1.0};
        const Prim r{2.0, ur, -v, 1.0, 0.0};
        const std::string what = std::string("uL=") + sign(ul) + " uR=" +
                                 sign(ur) + " v=" + sign(v);
        expect_bit_identical(l, r, gas, what);
        expect_bit_identical(l, l, gas, what + " (uniform)");
      }
}

TEST(RiemannExactness, SupersonicFlowBothDirections) {
  const GasModel gas;
  for (double u : {5.0, -5.0, 1.3, -1.3}) {
    const Prim l{1.0, u, 0.2, 1.0, 1.0};
    const Prim r{0.4, u, -0.1, 1.0, 0.0};
    expect_bit_identical(l, r, gas, "supersonic u=" + std::to_string(u));
    expect_bit_identical(l, l, gas, "supersonic uniform");
  }
  // u exactly at the sound speed: head == 0 on the upwind side.
  const Prim sonic{1.0, 0.0, 0.0, 1.0, 1.0};
  const double a = std::sqrt(gas.gamma_of(1.0) * sonic.p / sonic.rho);
  for (double u : {a, -a}) {
    Prim w = sonic;
    w.u = u;
    expect_bit_identical(w, w, gas, "sonic");
  }
}

TEST(RiemannExactness, PressureFloorBoundary) {
  const GasModel gas;
  const double below = std::nextafter(1e-12, 0.0);
  for (double p : {1e-12, below, 1e-15}) {
    for (double u : {0.0, 0.4, -0.4}) {
      const Prim l{1.0, u, 0.0, p, 1.0};
      const Prim r{0.5, u, 0.0, p, 0.0};
      expect_bit_identical(l, r, gas, "p=" + std::to_string(p));
      expect_bit_identical(l, l, gas, "p uniform");
    }
  }
}

TEST(RiemannExactness, ExtremeMagnitudes) {
  const GasModel gas;
  const double huge = std::numeric_limits<double>::max();
  const std::vector<std::pair<Prim, Prim>> cases = {
      {{1.0, 0.2, 0.0, 1e300, 1.0}, {2.0, 0.2, 0.0, 1e300, 0.0}},
      // pL + pR overflows: must take the loop. At p = 1e308 with Freon's
      // gamma, gamma * p and so a stay finite.
      {{1.0, 0.2, 0.0, huge, 1.0}, {2.0, 0.2, 0.0, huge, 0.0}},
      {{1.0, 0.2, 0.0, 1e308, 0.0}, {2.0, 0.2, 0.0, 1e308, 0.0}},
      {{1e-300, 0.2, 0.0, 1.0, 1.0}, {1e-300, 0.2, 0.0, 1.0, 0.0}},
      {{1e-300, 0.0, 0.0, 1e-12, 1.0}, {1.0, 0.0, 0.0, 1e-12, 1.0}},
      // uL + uR overflows.
      {{1.0, huge, 0.0, 1.0, 1.0}, {1.0, huge, 0.0, 1.0, 1.0}},
      {{1.0, -huge, 0.0, 1.0, 1.0}, {1.0, -huge, 0.0, 1.0, 1.0}},
      // rhoL + rhoR overflows; a rho so small that a overflows.
      {{huge, 0.1, 0.0, 1.0, 1.0}, {huge, 0.1, 0.0, 1.0, 1.0}},
      {{5e-324, 0.1, 0.0, 1.0, 1.0}, {1.0, 0.1, 0.0, 1.0, 1.0}},
      // Subnormal velocity.
      {{1.0, 5e-324, 0.0, 1.0, 1.0}, {1.0, 5e-324, 0.0, 1.0, 0.0}},
  };
  for (const auto& [l, r] : cases) expect_bit_identical(l, r, gas, "extreme");
}

TEST(RiemannExactness, PhiOutsideUnitIntervalAndDegenerateGases) {
  for (double phi : {-0.5, 1.7, std::numeric_limits<double>::quiet_NaN()}) {
    const Prim l{1.0, 0.3, 0.0, 1.0, phi};
    const Prim r{2.0, 0.3, 0.0, 1.0, 0.5};
    expect_bit_identical(l, r, GasModel{}, "phi outside [0,1]");
    expect_bit_identical(r, l, GasModel{}, "phi outside [0,1], mirrored");
  }
  // gamma <= 1 makes 2a/(gamma - 1) infinite or negative, so on an
  // equal-pressure face f_K = 2a/(gamma - 1) (pow(1, y) - 1) is NaN or -0.
  GasModel unit;
  unit.gamma1 = 1.0;
  GasModel sub;
  sub.gamma1 = 0.8;
  sub.gamma2 = 0.9;
  // With gamma > 1 on the left only, fL = +0 and fR = -0, and at
  // uL = uR = -0, u* = -0 + 0.5 (fR - fL) stays -0.
  GasModel mixed;
  mixed.gamma2 = 0.9;
  for (const GasModel& gas : {unit, sub, mixed})
    for (double u : {0.0, -0.0, 0.3, -0.3}) {
      const Prim l{1.0, u, 0.0, 1.0, 1.0};
      const Prim r{2.0, u, 0.0, 1.0, 0.0};
      expect_bit_identical(l, r, gas, "degenerate gamma");
      expect_bit_identical(r, l, gas, "degenerate gamma, mirrored");
      expect_bit_identical(l, l, gas, "degenerate gamma, uniform");
    }
}

TEST(RiemannExactness, NonDefaultSolverParams) {
  const GasModel gas;
  const Prim l{1.0, -0.0, 0.0, 1.0, 1.0};
  const Prim r{3.0, -0.0, 0.0, 1.0, 0.0};
  const Prim shock_l{1.0, 0.0, 0.0, 1.0, 1.0};
  const Prim shock_r{0.125, 0.0, 0.0, 0.1, 1.0};
  for (const RiemannParams& params :
       {RiemannParams{0.0, 40}, RiemannParams{1e-8, 0},
        RiemannParams{-1.0, 5}, RiemannParams{1e-8, -3},
        RiemannParams{std::numeric_limits<double>::quiet_NaN(), 4}}) {
    expect_bit_identical(l, r, gas, params, "contact");
    expect_bit_identical(r, r, gas, params, "uniform");
    expect_bit_identical(shock_l, shock_r, gas, params, "sod");
  }
  // tol = 0 never converges: the loop runs to max_iter.
  EXPECT_EQ(euler::exact_riemann(l, r, gas, RiemannParams{0.0, 40}).iterations,
            40);
  EXPECT_EQ(euler::exact_riemann(l, r, gas, RiemannParams{1e-8, 0}).iterations,
            0);
}

TEST(RiemannExactness, RandomGeneralStates) {
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<double> rho(0.05, 10.0), u(-4.0, 4.0),
      p(0.01, 20.0), unit(0.0, 1.0);
  const GasModel gas;
  for (int k = 0; k < 20000; ++k) {
    Prim l{rho(rng), u(rng), u(rng), p(rng), unit(rng)};
    Prim r{rho(rng), u(rng), u(rng), p(rng), unit(rng)};
    // Half the faces get equal p and u, as on AMR patches (some with a
    // signed-zero velocity), and a third equal p or u only.
    switch (k % 6) {
      case 0: r.p = l.p; r.u = l.u; break;
      case 1: r.p = l.p; r.u = l.u; r.phi = l.phi; r.rho = l.rho; break;
      case 2: l.u = (k % 12 == 2) ? 0.0 : -0.0; r.u = -l.u; r.p = l.p; break;
      case 3: r.p = l.p; break;
      case 4: r.u = l.u; break;
      default: break;
    }
    expect_bit_identical(l, r, gas, "random #" + std::to_string(k));
    if (testing::Test::HasFailure()) break;  // one report, not 20k
  }
}

}  // namespace
