// AVX2 (W=4 doubles) instantiation of the LU kernels. Compiled with -mavx2
// and, like the whole library, -ffp-contract=off (src/CMakeLists.txt).

#include "components/lu_kernels_impl.hpp"

namespace components::detail {

const LuKernels& lu_kernels_avx2() {
  static constexpr LuKernels kAvx2 = make_lu_kernels<4>();
  return kAvx2;
}

}  // namespace components::detail
