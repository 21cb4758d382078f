// im2col / col2im correctness and adjointness.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "nn/im2col.h"
#include "nn/rng.h"

using namespace rdo::nn;

TEST(Im2Col, OutDim) {
  EXPECT_EQ(conv_out_dim(28, 5, 1, 2), 28);
  EXPECT_EQ(conv_out_dim(28, 5, 1, 0), 24);
  EXPECT_EQ(conv_out_dim(32, 3, 2, 1), 16);
  EXPECT_EQ(conv_out_dim(4, 4, 1, 0), 1);
}

TEST(Im2Col, IdentityKernel1x1) {
  // 1x1 kernel, stride 1, no pad: cols is the image itself.
  const std::int64_t c = 2, h = 2, w = 2;
  std::vector<float> img{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> cols(static_cast<std::size_t>(h * w * c));
  im2col(img.data(), c, h, w, 1, 1, 1, 0, cols.data());
  // Row k = channel k, entries = that channel's pixels.
  EXPECT_EQ(cols, img);
}

TEST(Im2Col, KnownSmallCase) {
  // 1 channel 3x3, k=2, stride 1, no pad => 4 taps x 4 positions.
  std::vector<float> img{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> cols(16);
  im2col(img.data(), 1, 3, 3, 2, 2, 1, 0, cols.data());
  // Row k = tap (ky, kx) = (0,0), (0,1), (1,0), (1,1) at positions 0..3.
  const std::vector<float> expect{1, 2, 4, 5, 2, 3, 5, 6,
                                  4, 5, 7, 8, 5, 6, 8, 9};
  for (int i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(cols[i], expect[i]);
}

TEST(Im2Col, PaddingProducesZeros) {
  std::vector<float> img{1, 2, 3, 4};  // 1x2x2
  const std::int64_t oh = conv_out_dim(2, 3, 1, 1);
  std::vector<float> cols(static_cast<std::size_t>(oh * oh * 9));
  im2col(img.data(), 1, 2, 2, 3, 3, 1, 1, cols.data());
  // Position (0,0): top-left of the 3x3 window hangs over the pad.
  const std::int64_t positions = oh * oh;
  EXPECT_FLOAT_EQ(cols[0], 0.0f);              // tap 0 = (-1,-1)
  EXPECT_FLOAT_EQ(cols[4 * positions], 1.0f);  // tap 4 = pixel (0,0)
}

class Im2ColAdjoint
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(Im2ColAdjoint, Col2ImIsAdjointOfIm2Col) {
  // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining property
  // that makes the conv backward pass correct.
  const auto [c, h, k, stride, pad] = GetParam();
  const std::int64_t w = h;
  const std::int64_t oh = conv_out_dim(h, k, stride, pad);
  const std::int64_t ow = conv_out_dim(w, k, stride, pad);
  const std::int64_t cols_size = oh * ow * c * k * k;
  Rng rng(static_cast<std::uint64_t>(c * 100 + h * 10 + k));

  std::vector<float> x(static_cast<std::size_t>(c * h * w));
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> y(static_cast<std::size_t>(cols_size));
  for (auto& v : y) v = static_cast<float>(rng.uniform(-1, 1));

  std::vector<float> cols(static_cast<std::size_t>(cols_size));
  im2col(x.data(), c, h, w, k, k, stride, pad, cols.data());
  std::vector<float> xg(x.size(), 0.0f);
  col2im(y.data(), c, h, w, k, k, stride, pad, xg.data());

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i) lhs += cols[i] * y[i];
  for (std::size_t i = 0; i < x.size(); ++i) rhs += x[i] * xg[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2ColAdjoint,
    ::testing::Values(std::make_tuple(1, 5, 3, 1, 0),
                      std::make_tuple(2, 6, 3, 1, 1),
                      std::make_tuple(3, 8, 3, 2, 1),
                      std::make_tuple(1, 7, 5, 1, 2),
                      std::make_tuple(4, 4, 1, 1, 0),
                      std::make_tuple(2, 9, 3, 3, 0)));

TEST(Col2Im, AccumulatesOverlaps) {
  // k=2, stride 1 on 3x3: center pixel participates in all 4 windows.
  const std::int64_t oh = 2, ow = 2;
  std::vector<float> cols(static_cast<std::size_t>(oh * ow * 4), 1.0f);
  std::vector<float> grad(9, 0.0f);
  col2im(cols.data(), 1, 3, 3, 2, 2, 1, 0, grad.data());
  EXPECT_FLOAT_EQ(grad[4], 4.0f);  // center
  EXPECT_FLOAT_EQ(grad[0], 1.0f);  // corner
  EXPECT_FLOAT_EQ(grad[1], 2.0f);  // edge
}
