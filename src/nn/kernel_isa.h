// Instruction-set copies of the hot nn kernels.
//
// The libraries build for the baseline instruction set of their target.
// On x86 two kernels have a second copy compiled for AVX:
//   - the GEMM row kernel behind gemm, gemm_accumulate and
//     gemm_at_b_accumulate (nn/gemm.h), from the same always-inline
//     source body (rdo_nn);
//   - the VAWO offset block sweep behind core::vawo_solve_group and
//     core::vawo_layer (core/vawo.h), one always-inline source body on
//     4-double vectors that keeps a block of 16 offset sums in registers
//     across a group's weights (rdo_core). The search around it is
//     pruned and exact: each per-weight term is >= +0 and rounding is
//     monotone, so a block whose running sums, or whose lower bound,
//     exceed the best finished objective (a strict >) can neither win
//     nor tie, and the winner scan walks the finished blocks in the
//     oracle's enumeration order with a strict <. Both copies prune the
//     same blocks, since they compute the same sums.
// kernel_isa() picks the copy once per process with a CPU check (CPUID
// plus the OS's YMM state support). There is no option or environment
// variable to choose it; the detail:: entries of both kernels take the
// copy as an argument so tests run each one.
//
// Every copy gives the same bytes. Every output element sums its terms in
// the same order with the same floating-point operations; only the number
// of elements per vector instruction differs. AVX has no fused
// multiply-add, and the libraries build with -ffp-contract=off
// (src/CMakeLists.txt) so no copy fuses a multiply and an add; the tier-1
// ctest `no_fma_in_libs` checks the archives for FMA instructions and, on
// x86, that rdo_nn and rdo_core hold their AVX copies.
#pragma once

namespace rdo::nn {

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define RDO_NN_AVX_COPY 1
#else
#define RDO_NN_AVX_COPY 0
#endif

enum class KernelIsa { baseline, avx };

/// The copy this process runs: avx on an x86 build whose CPU and OS
/// support AVX, baseline otherwise. Chosen on first use.
[[nodiscard]] KernelIsa kernel_isa();

/// True if this build has the copy and this CPU can run it.
[[nodiscard]] bool kernel_isa_supported(KernelIsa isa);

/// "avx" or "baseline".
[[nodiscard]] const char* kernel_isa_name(KernelIsa isa);

}  // namespace rdo::nn
