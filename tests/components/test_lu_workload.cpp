// components::LuFactorComponent — the HPL-style dense-LU session
// workload: residual correctness against the regenerated matrix,
// bitwise determinism, golden outputs pinned across kernel rewrites and
// ISA levels, pivoting, and the lu_proxy monitoring records the
// TelemetryHub's LU sessions produce.

#include "components/lu_workload.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/mastermind.hpp"
#include "core/proxies.hpp"
#include "core/tau_component.hpp"
#include "euler/simd.hpp"

namespace {

components::LuResult factor(int n, int block, std::uint64_t seed) {
  components::LuFactorComponent lu;
  return lu.factor(n, block, seed);
}

TEST(LuWorkload, ResidualAgainstRegeneratedMatrix) {
  for (const int n : {8, 32, 96}) {
    const components::LuResult r = factor(n, 16, 42);
    // Partial pivoting keeps the growth factor small on random matrices,
    // so the factorization residual sits within a few orders of eps.
    EXPECT_LT(r.residual_max, 1e-9) << "n=" << n;
    EXPECT_EQ(r.flops, static_cast<std::uint64_t>(2.0 * n * n * n / 3.0));
  }
}

TEST(LuWorkload, DeterministicDigestPerSeed) {
  const components::LuResult a = factor(64, 16, 7);
  const components::LuResult b = factor(64, 16, 7);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.row_swaps, b.row_swaps);
  const components::LuResult c = factor(64, 16, 8);
  EXPECT_NE(a.digest, c.digest);
}

struct Golden {
  int n;
  int block;
  std::uint64_t seed;
  std::uint64_t digest;
  std::uint64_t row_swaps;
  double residual_max;
};

// Captured from the plain scalar triple loops the register-tiled kernels
// replaced. The tenants benchmark shape (n=384, b=32), tile tails in rows
// and columns (n=97, 130), a panel wider than the matrix (b = n+3), and
// the degenerate n=1 and n=5. Bit-exact: the kernels keep every element's
// operation order (DESIGN.md §11).
constexpr Golden kGolden[] = {
    {384, 32, 1, 0x5efbbabcd1fb6cf0ull, 378u, 0x1.fp-48},
    {384, 32, 2, 0xf22e409994104175ull, 376u, 0x1p-47},
    {1, 1, 1, 0xe1517139fe8f7b6aull, 0u, 0x0p+0},
    {1, 1, 2, 0xd378f20e1ff5ec84ull, 0u, 0x0p+0},
    {1, 7, 1, 0xe1517139fe8f7b6aull, 0u, 0x0p+0},
    {1, 7, 2, 0xd378f20e1ff5ec84ull, 0u, 0x0p+0},
    {1, 4, 1, 0xe1517139fe8f7b6aull, 0u, 0x0p+0},
    {1, 4, 2, 0xd378f20e1ff5ec84ull, 0u, 0x0p+0},
    {5, 1, 1, 0x12e4a94188a02a4full, 2u, 0x1p-52},
    {5, 1, 2, 0x07444df5fd4d1798ull, 2u, 0x1p-52},
    {5, 7, 1, 0x12e4a94188a02a4full, 2u, 0x1p-52},
    {5, 7, 2, 0x07444df5fd4d1798ull, 2u, 0x1p-52},
    {5, 8, 1, 0x12e4a94188a02a4full, 2u, 0x1p-52},
    {5, 8, 2, 0x07444df5fd4d1798ull, 2u, 0x1p-52},
    {97, 1, 1, 0x7e70627783c51868ull, 91u, 0x1.cp-49},
    {97, 1, 2, 0xf5be0148466a7036ull, 89u, 0x1.2p-49},
    {97, 7, 1, 0x7e70627783c51868ull, 91u, 0x1.cp-49},
    {97, 7, 2, 0xf5be0148466a7036ull, 89u, 0x1.2p-49},
    {97, 100, 1, 0x7e70627783c51868ull, 91u, 0x1.cp-49},
    {97, 100, 2, 0xf5be0148466a7036ull, 89u, 0x1.2p-49},
    {33, 32, 1, 0xf1026a2e4f2cbc10ull, 28u, 0x1.4p-50},
    {33, 32, 2, 0xef1a3afdd3e7d41eull, 29u, 0x1p-50},
    {130, 64, 1, 0x36a20a24a5f751eaull, 124u, 0x1.ep-49},
    {130, 64, 2, 0x5da0a5ff49822df8ull, 124u, 0x1p-48},
};

void expect_golden(const Golden& g, const char* isa) {
  const components::LuResult r = factor(g.n, g.block, g.seed);
  EXPECT_EQ(r.digest, g.digest)
      << isa << " n=" << g.n << " b=" << g.block << " seed=" << g.seed;
  EXPECT_EQ(r.row_swaps, g.row_swaps)
      << isa << " n=" << g.n << " b=" << g.block << " seed=" << g.seed;
  EXPECT_EQ(r.residual_max, g.residual_max)
      << isa << " n=" << g.n << " b=" << g.block << " seed=" << g.seed;
}

TEST(LuWorkload, MatchesGoldenOutputs) {
  for (const Golden& g : kGolden)
    expect_golden(g, euler::simd::isa_name(euler::simd::active()));
}

TEST(LuWorkload, IdenticalAcrossIsaLevels) {
  // Every dispatch level the host runs must reproduce the golden bits;
  // levels it cannot run clamp down and repeat a lower level's check.
  const euler::simd::Isa saved = euler::simd::active();
  for (const euler::simd::Isa isa :
       {euler::simd::Isa::scalar, euler::simd::Isa::avx2,
        euler::simd::Isa::avx512}) {
    const euler::simd::Isa installed = euler::simd::set_isa(isa);
    for (const Golden& g : kGolden)
      expect_golden(g, euler::simd::isa_name(installed));
  }
  euler::simd::set_isa(saved);
}

TEST(LuWorkload, PartialPivotingActuallyPivots) {
  // Fully random matrix: the max-magnitude entry of column k is almost
  // never already at row k, so a 96x96 factorization should swap on the
  // order of n times. Near-zero swaps would mean pivoting is dead code
  // (which is exactly what a diagonally-boosted generator produces).
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    EXPECT_GT(factor(96, 24, seed).row_swaps, 48u) << "seed=" << seed;
}

TEST(LuWorkload, BlockWidthPreservesCorrectness) {
  // Right-looking blocked LU applies each element's updates in ascending
  // k whatever the panel width, so the factored bits do not depend on it.
  const std::uint64_t digest = factor(64, 1, 3).digest;
  for (const int block : {1, 5, 8, 13, 16, 63, 64, 128}) {
    const components::LuResult r = factor(64, block, 3);
    EXPECT_LT(r.residual_max, 1e-9) << "block=" << block;
    EXPECT_EQ(r.digest, digest) << "block=" << block;
  }
}

TEST(LuWorkload, MatrixEntryIsPureAndBounded) {
  EXPECT_EQ(components::lu_matrix_entry(5, 32, 3, 9),
            components::lu_matrix_entry(5, 32, 3, 9));
  for (int i = 0; i < 32; ++i)
    for (int j = 0; j < 32; ++j) {
      const double v = components::lu_matrix_entry(5, 32, i, j);
      EXPECT_GE(v, -1.0);
      EXPECT_LT(v, 1.0);
    }
}

TEST(LuWorkload, ProxyReportsMonitoredRecords) {
  // The KernelRig shape: Mastermind + TAU with lu_proxy interposed.
  cca::ComponentRepository repo;
  repo.register_class("TauMeasurement", [] {
    return std::make_unique<core::TauMeasurementComponent>();
  });
  repo.register_class("Mastermind",
                      [] { return std::make_unique<core::MastermindComponent>(); });
  repo.register_class("LuFactor", [] {
    return std::make_unique<components::LuFactorComponent>();
  });
  repo.register_class("LuProxy", [] { return std::make_unique<core::LuProxy>(); });
  cca::Framework fw(std::move(repo));
  fw.instantiate("tau", "TauMeasurement");
  fw.instantiate("mm", "Mastermind");
  fw.instantiate("lu", "LuFactor");
  fw.instantiate("lu_proxy", "LuProxy");
  fw.connect("mm", "measurement", "tau", "measurement");
  fw.connect("lu_proxy", "monitor", "mm", "monitor");
  fw.connect("lu_proxy", "lu_real", "lu", "lu");

  auto* lu = fw.services("lu_proxy").provided_as<components::LuPort>("lu");
  const components::LuResult direct = factor(48, 12, 9);
  const components::LuResult proxied = lu->factor(48, 12, 9);
  EXPECT_EQ(direct.digest, proxied.digest);  // proxy is transparent

  auto* mm = dynamic_cast<core::MastermindComponent*>(&fw.component("mm"));
  ASSERT_NE(mm, nullptr);
  const core::Record* rec = mm->record("lu_proxy::factor()");
  ASSERT_NE(rec, nullptr);
  const auto rows = rec->invocations();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].params.at("N"), 48.0);
  EXPECT_EQ(rows[0].params.at("block"), 12.0);
  EXPECT_GT(rows[0].wall_us, 0.0);
}

}  // namespace
