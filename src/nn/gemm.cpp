#include "nn/gemm.h"

#include <algorithm>
#include <cstring>
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

/// C[i, :] += sum_p A(i, p) * B[p, :] over rows [i0, i1), with A(i, p) =
/// a[i * a_row + p * a_col]. Zero A entries are skipped; the remaining
/// terms are gathered per row and B panel and applied four at a time as
/// (((c + t0) + t1) + t2) + t3, which rounds exactly like four separate
/// `c += t` steps, so every element still sums its terms in ascending p.
void gemm_rows(const float* a, std::int64_t a_row, std::int64_t a_col,
               const float* b, float* c, std::int64_t i0, std::int64_t i1,
               std::int64_t k, std::int64_t n) {
  float av[kPanelK];
  const float* brow[kPanelK];
  for (std::int64_t p0 = 0; p0 < k; p0 += kPanelK) {
    const std::int64_t p1 = std::min(k, p0 + kPanelK);
    for (std::int64_t i = i0; i < i1; ++i) {
      std::int64_t cnt = 0;
      for (std::int64_t p = p0; p < p1; ++p) {
        const float v = a[i * a_row + p * a_col];
        // im2col matrices and activations are often sparse (ReLU)
        if (v == 0.0f) continue;
        av[cnt] = v;
        brow[cnt++] = b + p * n;
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

}  // namespace

void gemm_accumulate(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n) {
  parallel_for(
      m,
      [&](std::int64_t i0, std::int64_t i1) {
        gemm_rows(a, k, 1, b, c, i0, i1, k, n);
      },
      row_grain(k, n));
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n) {
  std::memset(c, 0, sizeof(float) * static_cast<std::size_t>(m * n));
  gemm_accumulate(a, b, c, m, k, n);
}

void gemm_at_b_accumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n) {
  // A is [K, M]: A(i, p) = a[p * m + i]. Each chunk owns rows [i0, i1)
  // of C and walks p in the serial order.
  parallel_for(
      m,
      [&](std::int64_t i0, std::int64_t i1) {
        gemm_rows(a, 1, m, b, c, i0, i1, k, n);
      },
      row_grain(k, n));
}

void gemm_a_bt_accumulate(const float* a, const float* b, float* c,
                          std::int64_t m, std::int64_t k, std::int64_t n) {
  // B is [N, K]; we compute C[i, j] += sum_p A[i, p] * B[j, p]. B is
  // transposed once so each C row is a row sweep over contiguous B^T rows.
  // Every element sums its products in ascending p into a zeroed
  // accumulator that is then added to C, exactly as a per-element dot
  // product would.
  std::vector<float> bt_buf(static_cast<std::size_t>(k * n));
  float* bt = bt_buf.data();
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t p = 0; p < k; ++p) bt[p * n + j] = b[j * k + p];
  }
  parallel_for(
      m,
      [&](std::int64_t i0, std::int64_t i1) {
        std::vector<float> acc_buf(static_cast<std::size_t>(n));
        float* acc = acc_buf.data();
        for (std::int64_t i = i0; i < i1; ++i) {
          std::fill(acc, acc + n, 0.0f);
          gemm_rows(a + i * k, 0, 1, bt, acc, 0, 1, k, n);
          float* crow = c + i * n;
          for (std::int64_t j = 0; j < n; ++j) crow[j] += acc[j];
        }
      },
      row_grain(k, n));
}

}  // namespace rdo::nn
