#include "nn/gemm.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "nn/parallel.h"

namespace rdo::nn {

namespace {

/// B-panel height kept hot in cache while sweeping a block of C rows.
/// Blocking over k only reorders *whole rows* of the p loop per output
/// element (p still increases monotonically), so results are bitwise
/// identical to the unblocked kernel.
constexpr std::int64_t kPanelK = 256;

/// Minimum multiply-adds one chunk should amortize the dispatch over.
constexpr std::int64_t kGrainFlops = 1 << 15;

std::int64_t row_grain(std::int64_t k, std::int64_t n) {
  const std::int64_t per_row = std::max<std::int64_t>(1, k * n);
  return std::max<std::int64_t>(1, kGrainFlops / per_row);
}

/// Row p of B: b_rows[p] when given (rows may overlap, like the tap rows
/// of a conv's input planes), else b + p * n.
struct BRows {
  const float* b;
  const float* const* b_rows;
  [[gnu::always_inline]] const float* row(std::int64_t p,
                                          std::int64_t n) const {
    return b_rows != nullptr ? b_rows[p] : b + p * n;
  }
};

/// C[i, :] += sum_p A(i, p) * B[p, :] over rows [i0, i1), with A(i, p) =
/// a[i * a_row + p * a_col]. Zero A entries are skipped; the remaining
/// terms are gathered per row and B panel (every entry is stored, and only
/// a nonzero one advances the count, so sparse activation rows cost no
/// mispredicted branch) and applied four at a time as
/// (((c + t0) + t1) + t2) + t3, which rounds exactly like four separate
/// `c += t` steps, so every element still sums its terms in ascending p.
/// The one source body of both instruction-set copies below.
[[gnu::always_inline]] inline void gemm_rows_body(
    const float* a, std::int64_t a_row, std::int64_t a_col, BRows b,
    float* c, std::int64_t i0, std::int64_t i1, std::int64_t k,
    std::int64_t n) {
  float av[kPanelK];
  const float* brow[kPanelK];
  for (std::int64_t p0 = 0; p0 < k; p0 += kPanelK) {
    const std::int64_t p1 = std::min(k, p0 + kPanelK);
    for (std::int64_t i = i0; i < i1; ++i) {
      std::int64_t cnt = 0;
      for (std::int64_t p = p0; p < p1; ++p) {
        const float v = a[i * a_row + p * a_col];
        av[cnt] = v;
        brow[cnt] = b.row(p, n);
        cnt += v != 0.0f;
      }
      float* __restrict crow = c + i * n;
      std::int64_t t = 0;
      for (; t + 4 <= cnt; t += 4) {
        const float a0 = av[t], a1 = av[t + 1], a2 = av[t + 2],
                    a3 = av[t + 3];
        const float *b0 = brow[t], *b1 = brow[t + 1], *b2 = brow[t + 2],
                    *b3 = brow[t + 3];
        for (std::int64_t j = 0; j < n; ++j) {
          crow[j] = (((crow[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) +
                    a3 * b3[j];
        }
      }
      for (; t < cnt; ++t) {
        const float a0 = av[t];
        const float* b0 = brow[t];
        for (std::int64_t j = 0; j < n; ++j) crow[j] += a0 * b0[j];
      }
    }
  }
}

using RowsFn = void (*)(const float*, std::int64_t, std::int64_t, BRows,
                       float*, std::int64_t, std::int64_t, std::int64_t,
                       std::int64_t);

void gemm_rows_baseline(const float* a, std::int64_t a_row,
                        std::int64_t a_col, BRows b, float* c,
                        std::int64_t i0, std::int64_t i1, std::int64_t k,
                        std::int64_t n) {
  gemm_rows_body(a, a_row, a_col, b, c, i0, i1, k, n);
}

#if RDO_NN_AVX_COPY
[[gnu::target("avx")]] void gemm_rows_avx(const float* a, std::int64_t a_row,
                                          std::int64_t a_col, BRows b,
                                          float* c, std::int64_t i0,
                                          std::int64_t i1, std::int64_t k,
                                          std::int64_t n) {
  gemm_rows_body(a, a_row, a_col, b, c, i0, i1, k, n);
}
#endif

RowsFn gemm_rows([[maybe_unused]] KernelIsa isa) {
#if RDO_NN_AVX_COPY
  if (isa == KernelIsa::avx) return gemm_rows_avx;
#endif
  return gemm_rows_baseline;
}

/// Four floats in one SIMD register, and the matching lane mask (GCC and
/// Clang vector extensions).
using F4 = float __attribute__((vector_size(16)));
using I4 = std::int32_t __attribute__((vector_size(16)));

/// Register tile of the A·B^T kernel: up to kTileM rows of C by up to
/// kTileV * 4 columns.
constexpr std::int64_t kTileM = 2;
constexpr std::int64_t kTileV = 4;

/// C[i + r, j0 + j] += sum_p A[i + r, p] * B^T[p, j0 + j] for r < R and
/// j < 4 * V (clipped to n), with B^T given as [K, ldb] zero-padded rows.
/// The R x V vector sums start at zero, take their terms in ascending p
/// and are added onto C once, exactly like a per-element dot product. A
/// zero A entry contributes +0.0 instead of its product, which is the
/// same as skipping it: a sum that starts at +0.0 never becomes -0.0
/// under round-to-nearest, so adding +0.0 leaves it unchanged, while the
/// product 0 * inf or 0 * NaN would not.
template <int R, int V>
void a_bt_tile(const float* a, const float* bt, float* c, std::int64_t i,
               std::int64_t j0, std::int64_t k, std::int64_t n,
               std::int64_t ldb) {
  F4 acc[R][V] = {};
  for (std::int64_t p = 0; p < k; ++p) {
    F4 b[V];
    for (int v = 0; v < V; ++v) {
      std::memcpy(&b[v], bt + p * ldb + j0 + 4 * v, sizeof(F4));
    }
    for (int r = 0; r < R; ++r) {
      const float av = a[(i + r) * k + p];
      const F4 avv = {av, av, av, av};
      const I4 keep = avv != F4{};
      for (int v = 0; v < V; ++v) {
        acc[r][v] += reinterpret_cast<F4>(
            reinterpret_cast<I4>(avv * b[v]) & keep);
      }
    }
  }
  float sums[R][4 * V];
  std::memcpy(sums, acc, sizeof sums);
  const std::int64_t cols = std::min<std::int64_t>(4 * V, n - j0);
  for (int r = 0; r < R; ++r) {
    float* crow = c + (i + r) * n + j0;
    for (std::int64_t j = 0; j < cols; ++j) crow[j] += sums[r][j];
  }
}

/// Every column tile of C rows [i, i + R).
template <int R>
void a_bt_rows(const float* a, const float* bt, float* c, std::int64_t i,
               std::int64_t k, std::int64_t n, std::int64_t ldb) {
  for (std::int64_t j0 = 0; j0 < n; j0 += 4 * kTileV) {
    switch (std::min(kTileV, (n - j0 + 3) / 4)) {
      case 1: a_bt_tile<R, 1>(a, bt, c, i, j0, k, n, ldb); break;
      case 2: a_bt_tile<R, 2>(a, bt, c, i, j0, k, n, ldb); break;
      case 3: a_bt_tile<R, 3>(a, bt, c, i, j0, k, n, ldb); break;
      default: a_bt_tile<R, kTileV>(a, bt, c, i, j0, k, n, ldb); break;
    }
  }
}

/// C += A^T * B with A stored [K, M]: A(i, p) = a[p * m + i]. Each chunk
/// owns rows [i0, i1) of C and walks p in the serial order.
void gemm_at_b_rows(KernelIsa isa, const float* a, BRows b, float* c,
                    std::int64_t m, std::int64_t k, std::int64_t n) {
  const RowsFn rows = gemm_rows(isa);
  parallel_for(
      m,
      [&](std::int64_t i0, std::int64_t i1) {
        rows(a, 1, m, b, c, i0, i1, k, n);
      },
      row_grain(k, n));
}

}  // namespace

namespace detail {

void gemm_accumulate(KernelIsa isa, const float* a, const float* b, float* c,
                     std::int64_t m, std::int64_t k, std::int64_t n) {
  const RowsFn rows = gemm_rows(isa);
  parallel_for(
      m,
      [&](std::int64_t i0, std::int64_t i1) {
        rows(a, k, 1, {b, nullptr}, c, i0, i1, k, n);
      },
      row_grain(k, n));
}

void gemm_at_b_accumulate(KernelIsa isa, const float* a, const float* b,
                          float* c, std::int64_t m, std::int64_t k,
                          std::int64_t n) {
  gemm_at_b_rows(isa, a, {b, nullptr}, c, m, k, n);
}

void gemm_at_b_rows_accumulate(KernelIsa isa, const float* a,
                               const float* const* b_rows, float* c,
                               std::int64_t m, std::int64_t k,
                               std::int64_t n) {
  gemm_at_b_rows(isa, a, {nullptr, b_rows}, c, m, k, n);
}

}  // namespace detail

void gemm_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n) {
  detail::gemm_accumulate(kernel_isa(), a, b, c, m, k, n);
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m * n));
  gemm_accumulate(a, b, c, m, k, n);
}

void gemm_at_b_accumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n) {
  detail::gemm_at_b_accumulate(kernel_isa(), a, b, c, m, k, n);
}

void gemm_at_b_rows_accumulate(const float* a, const float* const* b_rows,
                               float* c, std::int64_t m, std::int64_t k,
                               std::int64_t n) {
  detail::gemm_at_b_rows_accumulate(kernel_isa(), a, b_rows, c, m, k, n);
}

void gemm_a_bt_accumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n) {
  // B is [N, K]. It is transposed once into B^T [K, ldb], each row
  // zero-padded to whole vectors, so a tile's B values for one p are
  // contiguous. The transpose reads four B rows side by side; rows past
  // N read a zero row.
  const std::int64_t ldb = (n + 3) / 4 * 4;
  const auto bt_buf = std::make_unique_for_overwrite<float[]>(
      static_cast<std::size_t>(k * ldb));
  float* bt = bt_buf.get();
  const std::vector<float> zero_row(
      n == ldb ? 0 : static_cast<std::size_t>(k), 0.0f);
  for (std::int64_t j0 = 0; j0 < ldb; j0 += 4) {
    const float* rows[4];
    for (std::int64_t q = 0; q < 4; ++q) {
      rows[q] = j0 + q < n ? b + (j0 + q) * k : zero_row.data();
    }
    for (std::int64_t p = 0; p < k; ++p) {
      float* dst = bt + p * ldb + j0;
      for (std::int64_t q = 0; q < 4; ++q) dst[q] = rows[q][p];
    }
  }
  parallel_for(
      m,
      [&](std::int64_t i0, std::int64_t i1) {
        std::int64_t i = i0;
        for (; i + kTileM <= i1; i += kTileM) {
          a_bt_rows<kTileM>(a, bt, c, i, k, n, ldb);
        }
        for (; i < i1; ++i) a_bt_rows<1>(a, bt, c, i, k, n, ldb);
      },
      row_grain(k, n));
}

}  // namespace rdo::nn
