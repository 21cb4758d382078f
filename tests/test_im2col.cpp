// The ConvPlanes lowering and the im2col matrix it gathers: correctness
// and byte-for-byte agreement with the per-element im2col oracle in
// tests/sim_oracles.h. Conv2D's use of the planes (forward,
// input gradient and offset gradient) is checked byte for byte in
// tests/test_conv_lowering.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "core/check.h"
#include "nn/conv_planes.h"
#include "nn/rng.h"
#include "sim_oracles.h"

using namespace rdo::nn;

namespace {

bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The im2col matrix of one image through ConvPlanes: lower(), then
/// gather().
std::vector<float> gathered_cols(const std::vector<float>& img,
                                 std::int64_t c, std::int64_t h,
                                 std::int64_t w, std::int64_t k,
                                 std::int64_t stride, std::int64_t pad) {
  const ConvPlanes g(c, h, w, k, stride, pad);
  std::vector<float> planes(static_cast<std::size_t>(g.size()));
  g.lower(img.data(), planes.data());
  std::vector<float> cols(static_cast<std::size_t>(c * k * k * g.oh * g.ow));
  g.gather(planes.data(), cols.data());
  return cols;
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
  const std::vector<float> img{1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<float> cols = gathered_cols(img, 2, 2, 2, 1, 1, 0);
  // Row k = channel k, entries = that channel's pixels.
  EXPECT_EQ(cols, img);
}

TEST(Im2Col, KnownSmallCase) {
  // 1 channel 3x3, k=2, stride 1, no pad => 4 taps x 4 positions.
  const std::vector<float> img{1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::vector<float> cols = gathered_cols(img, 1, 3, 3, 2, 1, 0);
  ASSERT_EQ(cols.size(), 16u);
  // Row k = tap (ky, kx) = (0,0), (0,1), (1,0), (1,1) at positions 0..3.
  const std::vector<float> expect{1, 2, 4, 5, 2, 3, 5, 6,
                                  4, 5, 7, 8, 5, 6, 8, 9};
  for (int i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(cols[i], expect[i]);
}

TEST(Im2Col, PaddingProducesZeros) {
  const std::vector<float> img{1, 2, 3, 4};  // 1x2x2
  const std::int64_t oh = conv_out_dim(2, 3, 1, 1);
  const std::vector<float> cols = gathered_cols(img, 1, 2, 2, 3, 1, 1);
  // Position (0,0): top-left of the 3x3 window hangs over the pad.
  const std::int64_t positions = oh * oh;
  EXPECT_FLOAT_EQ(cols[0], 0.0f);              // tap 0 = (-1,-1)
  EXPECT_FLOAT_EQ(cols[4 * positions], 1.0f);  // tap 4 = pixel (0,0)
}

TEST(ConvPlanes, TapRunsMatchPerElementOracle) {
  // Every geometry with c in {1, 3}, h and w in 1..9 and 28, k in
  // {1, 2, 3, 5, 7}, stride 1..3 and pad 0..k where the kernel fits; large
  // pads and strides include taps that never land inside the image.
  // gather() gives the oracle's im2col matrix and every tap run holds the
  // oracle's im2col row at each valid output position, byte for byte;
  // every run ends inside the buffer; the planes hold the image's
  // pixels and zeros only; and unpad() gives the image back. Inputs
  // include -0.0 and exact zeros.
  std::vector<std::int64_t> sizes{1, 2, 3, 4, 5, 6, 7, 8, 9, 28};
  Rng rng(20);
  int geometries = 0, dead_taps = 0;
  for (const std::int64_t c : {1, 3}) {
    for (const std::int64_t h : sizes) {
      for (const std::int64_t w : sizes) {
        for (const std::int64_t k : {1, 2, 3, 5, 7}) {
          for (std::int64_t stride = 1; stride <= 3; ++stride) {
            for (std::int64_t pad = 0; pad <= k; ++pad) {
              if (h + 2 * pad < k || w + 2 * pad < k) continue;
              const ConvPlanes g(c, h, w, k, stride, pad);
              ASSERT_EQ(g.oh, conv_out_dim(h, k, stride, pad));
              ASSERT_EQ(g.ow, conv_out_dim(w, k, stride, pad));
              std::vector<float> img(static_cast<std::size_t>(c * h * w));
              for (std::size_t i = 0; i < img.size(); ++i) {
                const float v = static_cast<float>(rng.uniform(-1, 1));
                img[i] = i % 5 == 0 ? 0.0f : i % 7 == 0 ? -0.0f : v;
              }
              // Poisoned: lower() must write every float.
              std::vector<float> planes(static_cast<std::size_t>(g.size()),
                                        7.0f);
              g.lower(img.data(), planes.data());
              const std::vector<float> cols =
                  rdo::oracle::im2col(img.data(), c, h, w, k, stride, pad);
              // Poisoned: gather() must write every element.
              std::vector<float> gathered(cols.size(), 7.0f);
              g.gather(planes.data(), gathered.data());
              ASSERT_TRUE(same_bytes(gathered, cols))
                  << "gather c=" << c << " h=" << h << " w=" << w
                  << " k=" << k << " stride=" << stride << " pad=" << pad;
              const auto at = [](const std::vector<float>& v,
                                 std::int64_t i) {
                std::uint32_t bits = 0;
                std::memcpy(&bits, &v[static_cast<std::size_t>(i)],
                            sizeof bits);
                return bits;
              };
              std::int64_t row = 0;
              for (std::int64_t ch = 0; ch < c; ++ch) {
                for (std::int64_t ky = 0; ky < k; ++ky) {
                  for (std::int64_t kx = 0; kx < k; ++kx, ++row) {
                    const std::int64_t start = g.tap_offset(ch, ky, kx);
                    ASSERT_LE(start + g.run(), g.size());
                    for (std::int64_t oy = 0; oy < g.oh; ++oy) {
                      for (std::int64_t ox = 0; ox < g.ow; ++ox) {
                        ASSERT_EQ(at(planes, start + oy * g.wq + ox),
                                  at(cols, (row * g.oh + oy) * g.ow + ox))
                            << "c=" << c << " h=" << h << " w=" << w
                            << " k=" << k << " stride=" << stride
                            << " pad=" << pad << " tap " << row;
                      }
                    }
                  }
                }
              }
              // Each pixel lands once; everything else is +0.0.
              const auto nonzero_bits = [&](const std::vector<float>& v) {
                std::int64_t count = 0;
                for (std::int64_t i = 0; i < std::ssize(v); ++i) {
                  count += at(v, i) != 0 ? 1 : 0;
                }
                return count;
              };
              ASSERT_EQ(nonzero_bits(planes), nonzero_bits(img));
              std::vector<float> back(img.size(), 7.0f);
              g.unpad(planes.data(), back.data());
              ASSERT_TRUE(same_bytes(back, img));
              ++geometries;
              // A tap row that is all padding: (ky, kx) = (0, 0) at
              // stride > 1 can step over the whole image.
              for (std::int64_t ky = 0; ky < k; ++ky) {
                bool lands = false;
                for (std::int64_t oy = 0; oy < g.oh; ++oy) {
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

TEST(ConvPlanes, RejectsKernelLargerThanPaddedImage) {
  // conv_out_dim alone reports one output position for a 3x3 stride-2
  // kernel on a 2x2 image, but a tap run would end past the planes.
  EXPECT_EQ(conv_out_dim(2, 3, 2, 0), 1);
  EXPECT_THROW(ConvPlanes(1, 2, 2, 3, 2, 0), rdo::core::ContractViolation);
  EXPECT_THROW(ConvPlanes(1, 3, 2, 3, 1, 0), rdo::core::ContractViolation);
  EXPECT_NO_THROW(ConvPlanes(1, 1, 1, 3, 2, 1));
}
