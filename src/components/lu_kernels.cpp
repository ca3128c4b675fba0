// Baseline-ISA (W=2 doubles: SSE2 on x86-64) instantiation of the LU
// kernels, and the dispatch over the per-ISA tables. CCAPERF_SIMD=scalar
// selects this width.

#include "components/lu_kernels.hpp"

#include "components/lu_kernels_impl.hpp"
#include "euler/simd.hpp"

namespace components::detail {

const LuKernels& lu_kernels() {
  switch (euler::simd::active()) {
#if defined(CCAPERF_SIMD_AVX512)
    case euler::simd::Isa::avx512:
      return lu_kernels_avx512();
#endif
#if defined(CCAPERF_SIMD_AVX2)
    case euler::simd::Isa::avx2:
      return lu_kernels_avx2();
#endif
    default:
      break;
  }
  static constexpr LuKernels kBaseline = make_lu_kernels<2>();
  return kBaseline;
}

}  // namespace components::detail
