// Blocked, parallel GEMM kernels used by Dense and Conv2D layers.
//
// C += A*B and C += A^T*B keep the ikj loop order (-O3 auto-vectorized
// inner j loop), block over k to keep the B panel cache-resident, skip
// zero A entries, and apply the remaining terms of a C row four at a time
// (one load/store of C per four terms, same rounding as four separate
// updates). Every element sums its terms onto C in ascending k. The row
// kernel reads B by the start address of each row, b + k * N for a plain
// B or a caller's list (Conv2D's shifted tap rows). It has one source
// body compiled twice, for the baseline
// instruction set and for AVX; kernel_isa() (nn/kernel_isa.h) picks the
// copy once per process. Vector width changes how many elements one
// instruction updates, not any element's arithmetic, and no copy fuses a
// multiply and an add, so both copies give the same bytes.
//
// C += A*B^T is register-tiled for PWT's offset-gradient reduction, where
// C is only out_ch (6 or 16) columns wide: B is transposed once into
// zero-padded rows, and tiles of 2 rows x up to 16 columns of C sit in
// four-float vector accumulators that start at zero, take their terms in
// ascending k (a zero A entry adds +0.0, which equals skipping it) and
// are added onto C once, exactly like a per-element dot product.
//
// All kernels tile the M dimension across the nn/parallel.h thread pool.
// Every output row is owned by exactly one chunk, so results are
// bit-identical to a plain serial loop for any thread count (see
// tests/test_gemm.cpp, GemmSerialOrder, and tests/test_parallel.cpp).
// Small problems run inline.
#pragma once

#include <cstdint>

#include "nn/kernel_isa.h"

namespace rdo::nn {

/// C[M,N] += A[M,K] * B[K,N]  (row-major, C must be pre-initialized).
void gemm_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n);

/// C[M,N] = A[M,K] * B[K,N]  (row-major, C overwritten).
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n);

/// C[M,N] += A^T[M,K] * B[K,N] where A is stored as [K,M] row-major.
void gemm_at_b_accumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n);

/// C[M,N] += A^T[M,K] * B[K,N] where A is stored as [K,M] row-major and
/// row p of B is the N floats from b_rows[p]. Rows may overlap: Conv2D
/// passes the shifted tap rows of one input plane (nn/conv_planes.h).
void gemm_at_b_rows_accumulate(const float* a, const float* const* b_rows,
                               float* c, std::int64_t m, std::int64_t k,
                               std::int64_t n);

/// C[M,N] += A[M,K] * B^T[K,N] where B is stored as [N,K] row-major.
void gemm_a_bt_accumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n);

namespace detail {

/// The public C += A*B, C += A^T*B and its row-start form above on one
/// instruction-set copy; they call these with kernel_isa(). `isa` must be supported
/// (kernel_isa_supported), so tests can hold both copies to one oracle.
void gemm_accumulate(KernelIsa isa, const float* a, const float* b, float* c,
                     std::int64_t m, std::int64_t k, std::int64_t n);
void gemm_at_b_accumulate(KernelIsa isa, const float* a, const float* b,
                          float* c, std::int64_t m, std::int64_t k,
                          std::int64_t n);
void gemm_at_b_rows_accumulate(KernelIsa isa, const float* a,
                               const float* const* b_rows, float* c,
                               std::int64_t m, std::int64_t k,
                               std::int64_t n);

}  // namespace detail

}  // namespace rdo::nn
