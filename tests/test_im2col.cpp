// im2col / col2im / im2col_group_sum: correctness, adjointness, and
// byte-for-byte agreement with per-element oracles.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "nn/im2col.h"
#include "nn/rng.h"

using namespace rdo::nn;

namespace {

// Per-element oracles: the lowering written out with a bounds test on
// every element, in the same tap and row order as the library kernels.
void im2col_oracle(const float* in, std::int64_t c, std::int64_t h,
                   std::int64_t w, std::int64_t kh, std::int64_t kw,
                   std::int64_t stride, std::int64_t pad, float* out) {
  const std::int64_t oh = conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = conv_out_dim(w, kw, stride, pad);
  float* row = out;
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float* img = in + ch * h * w;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      for (std::int64_t kx = 0; kx < kw; ++kx, row += oh * ow) {
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * stride - pad + ky;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * stride - pad + kx;
            row[oy * ow + ox] = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                                    ? img[iy * w + ix]
                                    : 0.0f;
          }
        }
      }
    }
  }
}

void col2im_oracle(const float* cols, std::int64_t c, std::int64_t h,
                   std::int64_t w, std::int64_t kh, std::int64_t kw,
                   std::int64_t stride, std::int64_t pad, float* in_grad) {
  const std::int64_t oh = conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = conv_out_dim(w, kw, stride, pad);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    float* img = in_grad + ch * h * w;
    for (std::int64_t ky = kh - 1; ky >= 0; --ky) {
      for (std::int64_t kx = kw - 1; kx >= 0; --kx) {
        const float* row = cols + ((ch * kh + ky) * kw + kx) * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * stride - pad + ky;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * stride - pad + kx;
            if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
              img[iy * w + ix] += row[oy * ow + ox];
            }
          }
        }
      }
    }
  }
}

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

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

TEST(Im2Col, FastPathMatchesPerElementOracle) {
  // Every geometry with c in {1, 3}, h and w in 1..9 and 28, k in
  // {1, 2, 3, 5, 7}, stride 1..3 and pad 0..k that has at least one
  // output position. Large pads and strides include taps that never land
  // inside the image. Both directions must match the oracle byte for
  // byte, so the accumulation order of col2im is pinned too.
  std::vector<std::int64_t> sizes{1, 2, 3, 4, 5, 6, 7, 8, 9, 28};
  Rng rng(18);
  int geometries = 0, dead_taps = 0;
  for (const std::int64_t c : {1, 3}) {
    for (const std::int64_t h : sizes) {
      for (const std::int64_t w : sizes) {
        for (const std::int64_t k : {1, 2, 3, 5, 7}) {
          for (std::int64_t stride = 1; stride <= 3; ++stride) {
            for (std::int64_t pad = 0; pad <= k; ++pad) {
              if (h + 2 * pad < k || w + 2 * pad < k) continue;
              const std::int64_t oh = conv_out_dim(h, k, stride, pad);
              const std::int64_t ow = conv_out_dim(w, k, stride, pad);
              const auto n_cols =
                  static_cast<std::size_t>(c * k * k * oh * ow);
              std::vector<float> img(static_cast<std::size_t>(c * h * w));
              for (float& v : img) v = static_cast<float>(rng.uniform(-1, 1));
              // Poison the outputs: every element must be written.
              std::vector<float> fast(n_cols, 7.0f), ref(n_cols, -7.0f);
              im2col(img.data(), c, h, w, k, k, stride, pad, fast.data());
              im2col_oracle(img.data(), c, h, w, k, k, stride, pad,
                            ref.data());
              ASSERT_TRUE(same_bytes(fast, ref))
                  << "im2col c=" << c << " h=" << h << " w=" << w
                  << " k=" << k << " stride=" << stride << " pad=" << pad;

              std::vector<float> cols(n_cols);
              for (float& v : cols) v = static_cast<float>(rng.uniform(-1, 1));
              std::vector<float> g_fast(img.size()), g_ref(img.size());
              for (std::size_t i = 0; i < img.size(); ++i) {
                g_fast[i] = g_ref[i] = static_cast<float>(rng.uniform(-1, 1));
              }
              col2im(cols.data(), c, h, w, k, k, stride, pad, g_fast.data());
              col2im_oracle(cols.data(), c, h, w, k, k, stride, pad,
                            g_ref.data());
              ASSERT_TRUE(same_bytes(g_fast, g_ref))
                  << "col2im c=" << c << " h=" << h << " w=" << w
                  << " k=" << k << " stride=" << stride << " pad=" << pad;

              ++geometries;
              // A tap row that is all padding: (ky, kx) = (0, 0) at
              // stride > 1 can step over the whole image.
              for (std::int64_t ky = 0; ky < k; ++ky) {
                bool lands = false;
                for (std::int64_t oy = 0; oy < oh; ++oy) {
                  const std::int64_t iy = oy * stride - pad + ky;
                  lands = lands || (iy >= 0 && iy < h);
                }
                dead_taps += lands ? 0 : 1;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(geometries, 5000);
  EXPECT_GT(dead_taps, 0);
}

TEST(Im2Col, GroupSumMatchesSummedOracleRows) {
  // PWT's offset-gradient lowering: each group's im2col rows summed in
  // ascending tap order onto +0.0, the way Conv2D summed the rows of a
  // materialised im2col. Inputs include -0.0 and exact zeros.
  std::vector<std::int64_t> sizes{1, 2, 3, 4, 5, 6, 7, 8, 9, 28};
  Rng rng(19);
  for (const std::int64_t c : {1, 3}) {
    for (const std::int64_t h : sizes) {
      for (const std::int64_t k : {1, 2, 3, 5, 7}) {
        for (std::int64_t stride = 1; stride <= 3; ++stride) {
          for (std::int64_t pad = 0; pad <= k; ++pad) {
            if (h + 2 * pad < k) continue;
            const std::int64_t w = h == 28 ? 28 : 10 - h;
            if (w + 2 * pad < k) continue;
            const std::int64_t positions = conv_out_dim(h, k, stride, pad) *
                                           conv_out_dim(w, k, stride, pad);
            const std::int64_t taps = c * k * k;
            std::vector<float> img(static_cast<std::size_t>(c * h * w));
            for (std::size_t i = 0; i < img.size(); ++i) {
              const float v = static_cast<float>(rng.uniform(-1, 1));
              img[i] = i % 5 == 0 ? 0.0f : i % 7 == 0 ? -0.0f : v;
            }
            std::vector<float> cols(static_cast<std::size_t>(taps * positions));
            im2col_oracle(img.data(), c, h, w, k, k, stride, pad, cols.data());
            for (const std::int64_t group : {1, 2, 5, 16}) {
              const std::int64_t groups = (taps + group - 1) / group;
              std::vector<float> ref(
                  static_cast<std::size_t>(groups * positions), 0.0f);
              for (std::int64_t t = 0; t < taps; ++t) {
                for (std::int64_t p = 0; p < positions; ++p) {
                  ref[static_cast<std::size_t>(t / group * positions + p)] +=
                      cols[static_cast<std::size_t>(t * positions + p)];
                }
              }
              std::vector<float> fast(ref.size(), 7.0f);
              im2col_group_sum(img.data(), c, h, w, k, k, stride, pad, group,
                               fast.data());
              ASSERT_TRUE(same_bytes(fast, ref))
                  << "c=" << c << " h=" << h << " w=" << w << " k=" << k
                  << " stride=" << stride << " pad=" << pad
                  << " group=" << group;
            }
          }
        }
      }
    }
  }
}
