#pragma once
// Runtime SIMD dispatch for the euler and LU kernels (DESIGN.md §11).
//
// The euler sweep kernels keep one scalar implementation as the
// deterministic reference; per-ISA translation units (kernels_avx2.cpp,
// kernels_avx512.cpp) compile the same vector template at different
// widths. The LU kernels (src/components/lu_kernels*.cpp) do the same,
// with a baseline-ISA width standing in for `scalar`. Which one runs is
// decided once at startup from cpuid (`__builtin_cpu_supports`)
// intersected with the `CCAPERF_SIMD` environment knob:
//
//   CCAPERF_SIMD=native   highest ISA both compiled in and supported (default)
//   CCAPERF_SIMD=scalar   force the scalar reference path (LU: baseline ISA)
//   CCAPERF_SIMD=avx2     cap dispatch at AVX2
//   CCAPERF_SIMD=avx512   cap dispatch at AVX-512
//
// Every ISA level produces bit-identical faces, fluxes, traced cache
// counters and LU factors (the vector lanes evaluate exactly the scalar
// expression DAG, FMA contraction is disabled in both libraries, and
// transcendentals are per-lane libm calls), so switching levels is a pure
// speed knob — the CI dispatch-matrix stage asserts fig01 densities match
// byte-for-byte and the LU suite's golden digests at every level.
// `set_isa` exists for tests and benches; it clamps to what the host
// supports.

#include <string_view>

namespace euler::simd {

enum class Isa { scalar = 0, avx2 = 1, avx512 = 2 };

/// Highest ISA level this binary can run here: compiled-in TUs ∩ cpuid.
Isa highest_supported();

/// The level sweeps currently dispatch to (env-selected at first use).
Isa active();

/// Overrides the dispatch level (clamped to highest_supported()); returns
/// the level actually installed. Not thread-safe against in-flight sweeps —
/// call it from test/bench setup only.
Isa set_isa(Isa isa);

const char* isa_name(Isa isa);

/// Parses "scalar" / "avx2" / "avx512" / "native"; false on anything else.
bool parse_isa(std::string_view text, Isa& out, bool& native);

}  // namespace euler::simd
