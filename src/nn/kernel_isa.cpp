#include "nn/kernel_isa.h"

namespace rdo::nn {

bool kernel_isa_supported(KernelIsa isa) {
  if (isa == KernelIsa::baseline) return true;
#if RDO_NN_AVX_COPY
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx");
#else
  return false;
#endif
}

KernelIsa kernel_isa() {
  static const KernelIsa isa = kernel_isa_supported(KernelIsa::avx)
                                   ? KernelIsa::avx
                                   : KernelIsa::baseline;
  return isa;
}

const char* kernel_isa_name(KernelIsa isa) {
  return isa == KernelIsa::avx ? "avx" : "baseline";
}

}  // namespace rdo::nn
