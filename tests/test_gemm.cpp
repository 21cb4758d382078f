// GEMM kernels vs. a naive triple-loop reference, across shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "nn/gemm.h"
#include "nn/rng.h"

using namespace rdo::nn;

namespace {

std::vector<float> random_mat(std::int64_t r, std::int64_t c, Rng& rng) {
  std::vector<float> m(static_cast<std::size_t>(r * c));
  for (auto& x : m) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

std::vector<float> ref_gemm(const std::vector<float>& a,
                            const std::vector<float>& b, std::int64_t m,
                            std::int64_t k, std::int64_t n) {
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[static_cast<std::size_t>(i * k + p)]) *
               b[static_cast<std::size_t>(p * n + j)];
      }
      c[static_cast<std::size_t>(i * n + j)] = static_cast<float>(acc);
    }
  }
  return c;
}

void expect_near(const std::vector<float>& a, const std::vector<float>& b,
                 float tol = 1e-4f) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], tol);
}

}  // namespace

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 100 + n));
  const auto a = random_mat(m, k, rng);
  const auto b = random_mat(k, n, rng);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  gemm(a.data(), b.data(), c.data(), m, k, n);
  expect_near(c, ref_gemm(a, b, m, k, n));
}

TEST_P(GemmShapes, AtBMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m + k + n));
  // A stored as [k, m]; result C[m, n] = A^T B.
  const auto a_t = random_mat(k, m, rng);
  const auto b = random_mat(k, n, rng);
  // Build A[m, k] explicitly for the reference.
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t i = 0; i < m; ++i) {
      a[static_cast<std::size_t>(i * k + p)] =
          a_t[static_cast<std::size_t>(p * m + i)];
    }
  }
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  gemm_at_b_accumulate(a_t.data(), b.data(), c.data(), m, k, n);
  expect_near(c, ref_gemm(a, b, m, k, n));
}

TEST_P(GemmShapes, ABtMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7 + k * 3 + n));
  const auto a = random_mat(m, k, rng);
  // B stored as [n, k]; result C[m, n] = A B^T.
  const auto b_t = random_mat(n, k, rng);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t p = 0; p < k; ++p) {
      b[static_cast<std::size_t>(p * n + j)] =
          b_t[static_cast<std::size_t>(j * k + p)];
    }
  }
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  gemm_a_bt_accumulate(a.data(), b_t.data(), c.data(), m, k, n);
  expect_near(c, ref_gemm(a, b, m, k, n));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(1, 32, 8), std::make_tuple(33, 17, 9),
                      std::make_tuple(64, 3, 64)));

TEST(Gemm, AccumulateAddsOntoExisting) {
  const std::int64_t m = 2, k = 2, n = 2;
  std::vector<float> a{1, 0, 0, 1};  // identity
  std::vector<float> b{1, 2, 3, 4};
  std::vector<float> c{10, 10, 10, 10};
  gemm_accumulate(a.data(), b.data(), c.data(), m, k, n);
  EXPECT_FLOAT_EQ(c[0], 11.0f);
  EXPECT_FLOAT_EQ(c[3], 14.0f);
}

TEST(Gemm, SkipsZeroRowsCorrectly) {
  // The kernel short-circuits zero A entries (common after ReLU); the
  // result must still be exact.
  const std::int64_t m = 3, k = 4, n = 2;
  Rng rng(5);
  auto a = random_mat(m, k, rng);
  a[0] = a[1] = a[5] = 0.0f;
  const auto b = random_mat(k, n, rng);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  gemm(a.data(), b.data(), c.data(), m, k, n);
  expect_near(c, ref_gemm(a, b, m, k, n));
}

// Every kernel must round exactly like a plain serial loop that adds one
// product at a time in ascending p (C += A*B: onto C; C += A*B^T: into a
// zeroed float accumulator, then onto C). Shapes cover fused-by-four
// remainders, sparse A and k beyond one B panel. C += A*B and C += A^T*B
// run on each instruction-set copy (nn/kernel_isa.h) this CPU supports.
class GemmSerialOrder
    : public ::testing::TestWithParam<
          std::tuple<KernelIsa, std::tuple<int, int, int>>> {
 protected:
  void SetUp() override {
    if (!kernel_isa_supported(isa())) {
      GTEST_SKIP() << kernel_isa_name(isa()) << " copy unavailable here";
    }
  }
  KernelIsa isa() const { return std::get<0>(GetParam()); }
  std::tuple<int, int, int> shape() const { return std::get<1>(GetParam()); }
};

TEST_P(GemmSerialOrder, KernelsRoundLikeTheSerialLoop) {
  const auto [m, k, n] = shape();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 10 + n));
  auto a = random_mat(m, k, rng);
  for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;  // sparse
  const auto b = random_mat(k, n, rng);
  const auto c0 = random_mat(m, n, rng);
  auto at = std::vector<float>(a.size());  // A^T, [k, m]
  auto bt = std::vector<float>(b.size());  // B^T, [n, k]
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      at[static_cast<std::size_t>(p * m + i)] =
          a[static_cast<std::size_t>(i * k + p)];
    }
  }
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) {
      bt[static_cast<std::size_t>(j * k + p)] =
          b[static_cast<std::size_t>(p * n + j)];
    }
  }
  std::vector<float> ref = c0, ref_bt = c0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const auto ij = static_cast<std::size_t>(i * n + j);
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        const float t = a[static_cast<std::size_t>(i * k + p)] *
                        b[static_cast<std::size_t>(p * n + j)];
        ref[ij] += t;
        acc += t;
      }
      ref_bt[ij] += acc;
    }
  }
  std::vector<float> c1 = c0, c2 = c0, c3 = c0;
  detail::gemm_accumulate(isa(), a.data(), b.data(), c1.data(), m, k, n);
  detail::gemm_at_b_accumulate(isa(), at.data(), b.data(), c2.data(), m, k,
                               n);
  gemm_a_bt_accumulate(a.data(), bt.data(), c3.data(), m, k, n);
  EXPECT_EQ(c1, ref);
  EXPECT_EQ(c2, ref);
  EXPECT_EQ(c3, ref_bt);
}

/// Runs C += A*B and C += A^T*B on `isa`, and C += A*B^T, from C = c0,
/// and requires the bytes of the serial loop that skips zero A entries
/// and adds one product at a time in ascending p.
void expect_serial_skip_order(KernelIsa isa, const std::vector<float>& a,
                              const std::vector<float>& b,
                              const std::vector<float>& c0, std::int64_t m,
                              std::int64_t k, std::int64_t n) {
  std::vector<float> at(a.size()), bt(b.size());
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      at[static_cast<std::size_t>(p * m + i)] =
          a[static_cast<std::size_t>(i * k + p)];
    }
  }
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) {
      bt[static_cast<std::size_t>(j * k + p)] =
          b[static_cast<std::size_t>(p * n + j)];
    }
  }
  std::vector<float> ref = c0, ref_bt = c0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const auto ij = static_cast<std::size_t>(i * n + j);
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = a[static_cast<std::size_t>(i * k + p)];
        if (av == 0.0f) continue;
        const float t = av * b[static_cast<std::size_t>(p * n + j)];
        ref[ij] += t;
        acc += t;
      }
      ref_bt[ij] += acc;
    }
  }
  std::vector<float> c1 = c0, c2 = c0, c3 = c0;
  detail::gemm_accumulate(isa, a.data(), b.data(), c1.data(), m, k, n);
  detail::gemm_at_b_accumulate(isa, at.data(), b.data(), c2.data(), m, k, n);
  gemm_a_bt_accumulate(a.data(), bt.data(), c3.data(), m, k, n);
  const auto bytes = ref.size() * sizeof(float);
  EXPECT_EQ(std::memcmp(c1.data(), ref.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(c2.data(), ref.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(c3.data(), ref_bt.data(), bytes), 0);
}

TEST_P(GemmSerialOrder, ZeroAEntriesSkipInfiniteB) {
  // A zero A entry is skipped, not multiplied: column p0 of A is all zero
  // and row p0 of B holds +-inf, so any kernel that forms 0 * inf turns
  // its C row into NaN.
  const auto [m, k, n] = shape();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 10 + n + 1));
  auto a = random_mat(m, k, rng);
  for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
  auto b = random_mat(k, n, rng);
  const std::int64_t p0 = k / 2;
  const float inf = std::numeric_limits<float>::infinity();
  for (std::int64_t i = 0; i < m; ++i) {
    a[static_cast<std::size_t>(i * k + p0)] = i % 2 == 0 ? 0.0f : -0.0f;
  }
  for (std::int64_t j = 0; j < n; ++j) {
    b[static_cast<std::size_t>(p0 * n + j)] = j % 2 == 0 ? inf : -inf;
  }
  const auto c0 = random_mat(m, n, rng);
  expect_serial_skip_order(isa(), a, b, c0, m, k, n);
}

TEST_P(GemmSerialOrder, AlternatingAndAllZeroARows) {
  // Row patterns of activation operands: every third row all zero (the
  // zeros signed +-0 in turn), every third row zero at every other p, and
  // every third row dense. The kernels store each A entry and advance
  // only past a nonzero one, so a row of zeros must leave C untouched and
  // a half-zero row must keep its terms in ascending p.
  const auto [m, k, n] = shape();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 10 + n + 2));
  auto a = random_mat(m, k, rng);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      float& v = a[static_cast<std::size_t>(i * k + p)];
      if (i % 3 == 0) v = p % 2 == 0 ? 0.0f : -0.0f;
      if (i % 3 == 1 && p % 2 == 0) v = 0.0f;
    }
  }
  const auto b = random_mat(k, n, rng);
  const auto c0 = random_mat(m, n, rng);
  expect_serial_skip_order(isa(), a, b, c0, m, k, n);
}

TEST_P(GemmSerialOrder, RowStartEntryReadsOverlappingRows) {
  // C += A^T * B with row p of B given by its start address, as Conv2D
  // passes the tap rows of its input planes: row p starts `step` floats
  // after row p - 1 in one buffer, so consecutive rows overlap by n - step
  // floats. A is sparse (every third entry +-0) and the result must be
  // the serial loop's bytes, the same as C += A^T * B on a copy of B.
  const auto [m, k, n] = shape();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + k * 10 + n + 3));
  auto at = random_mat(k, m, rng);  // A^T, [k, m]
  for (std::size_t i = 0; i < at.size(); i += 3) {
    at[i] = i % 2 == 0 ? 0.0f : -0.0f;
  }
  const std::int64_t step = std::max<std::int64_t>(1, n / 3);
  const auto buf = random_mat(1, (k - 1) * step + n, rng);
  std::vector<const float*> rows;
  std::vector<float> b;  // the same rows, copied out to [k, n]
  for (std::int64_t p = 0; p < k; ++p) {
    rows.push_back(buf.data() + p * step);
    b.insert(b.end(), rows.back(), rows.back() + n);
  }
  const auto c0 = random_mat(m, n, rng);
  std::vector<float> ref = c0;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float& c = ref[static_cast<std::size_t>(i * n + j)];
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = at[static_cast<std::size_t>(p * m + i)];
        if (av != 0.0f) c += av * rows[static_cast<std::size_t>(p)][j];
      }
    }
  }
  std::vector<float> c1 = c0, c2 = c0;
  detail::gemm_at_b_rows_accumulate(isa(), at.data(), rows.data(), c1.data(),
                                    m, k, n);
  detail::gemm_at_b_accumulate(isa(), at.data(), b.data(), c2.data(), m, k,
                               n);
  const auto bytes = ref.size() * sizeof(float);
  EXPECT_EQ(std::memcmp(c1.data(), ref.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(c2.data(), ref.data(), bytes), 0);
}

namespace {

/// "avx_6x25x784": the copy and the shape.
std::string serial_order_name(
    const ::testing::TestParamInfo<GemmSerialOrder::ParamType>& info) {
  const auto [m, k, n] = std::get<1>(info.param);
  return std::string(kernel_isa_name(std::get<0>(info.param))) + "_" +
         std::to_string(m) + "x" + std::to_string(k) + "x" +
         std::to_string(n);
}

}  // namespace

// (6, 25, 784), (16, 150, 100) and (32, 400, 120) are LeNet's conv1 and
// conv2 forward over im2col and its 400 -> 120 dense forward at batch 32;
// (6, 25, 896) and (16, 150, 140) are the conv forwards over tap rows
// (28 x 32 and 10 x 14 positions, nn/conv_planes.h ConvPlanes); (2, 784, 6),
// (10, 100, 16) and (16, 150, 64) are PWT's offset-gradient reductions.
// n = 8..15 puts every remainder mod 8 behind at least one full AVX
// vector. (9, 300, 20) gives every row pattern of
// AlternatingAndAllZeroARows three rows across two B panels.
INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSerialOrder,
    ::testing::Combine(
        ::testing::Values(KernelIsa::baseline, KernelIsa::avx),
        ::testing::Values(
            std::make_tuple(1, 1, 1), std::make_tuple(3, 7, 5),
            std::make_tuple(6, 25, 100), std::make_tuple(5, 9, 33),
            std::make_tuple(4, 300, 17), std::make_tuple(16, 150, 64),
            std::make_tuple(2, 784, 6), std::make_tuple(10, 100, 16),
            std::make_tuple(32, 10, 64), std::make_tuple(6, 25, 784),
            std::make_tuple(16, 150, 100), std::make_tuple(32, 400, 120),
            std::make_tuple(3, 7, 8), std::make_tuple(3, 20, 9),
            std::make_tuple(4, 33, 10), std::make_tuple(3, 17, 11),
            std::make_tuple(5, 12, 12), std::make_tuple(2, 40, 13),
            std::make_tuple(6, 9, 14), std::make_tuple(7, 31, 15),
            std::make_tuple(9, 300, 20), std::make_tuple(6, 25, 896),
            std::make_tuple(16, 150, 140))),
    serial_order_name);
