// AVX-512 (W=8 doubles) instantiation of the LU kernels. Compiled with
// -mavx512f -mavx512dq -mavx512vl and, like the whole library,
// -ffp-contract=off (src/CMakeLists.txt).

#include "components/lu_kernels_impl.hpp"

namespace components::detail {

const LuKernels& lu_kernels_avx512() {
  static constexpr LuKernels kAvx512 = make_lu_kernels<8>();
  return kAvx512;
}

}  // namespace components::detail
