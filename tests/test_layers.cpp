// Numerical gradient checks and shape/semantics tests for every layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

using namespace rdo::nn;

namespace {

/// L(x) = sum_i coeff_i * layer(x)_i; checks analytic dL/dx and dL/dparams
/// against central finite differences.
void grad_check(Layer& layer, Tensor x, bool train = true,
                double tol = 2e-2) {
  Tensor y = layer.forward(x, train);
  Rng rng(99);
  Tensor coeff(y.shape());
  for (std::int64_t i = 0; i < coeff.size(); ++i) {
    coeff[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  auto loss = [&]() {
    Tensor out = layer.forward(x, train);
    double l = 0.0;
    for (std::int64_t i = 0; i < out.size(); ++i) l += coeff[i] * out[i];
    return l;
  };

  // Analytic gradients.
  for (Param* p : layer.params()) p->zero_grad();
  (void)layer.forward(x, train);
  Tensor grad_in = layer.backward(coeff);

  const double eps = 1e-3;
  // Input gradient: probe a subset of positions.
  const std::int64_t stride_probe = std::max<std::int64_t>(1, x.size() / 24);
  for (std::int64_t i = 0; i < x.size(); i += stride_probe) {
    const float orig = x[i];
    x[i] = orig + static_cast<float>(eps);
    const double lp = loss();
    x[i] = orig - static_cast<float>(eps);
    const double lm = loss();
    x[i] = orig;
    const double num = (lp - lm) / (2 * eps);
    EXPECT_NEAR(grad_in[i], num, tol * std::max(1.0, std::fabs(num)))
        << "input grad at " << i;
  }
  // Parameter gradients.
  for (Param* p : layer.params()) {
    Tensor& w = p->value;
    const std::int64_t pstride = std::max<std::int64_t>(1, w.size() / 16);
    for (std::int64_t i = 0; i < w.size(); i += pstride) {
      const float orig = w[i];
      w[i] = orig + static_cast<float>(eps);
      const double lp = loss();
      w[i] = orig - static_cast<float>(eps);
      const double lm = loss();
      w[i] = orig;
      const double num = (lp - lm) / (2 * eps);
      EXPECT_NEAR(p->grad[i], num, tol * std::max(1.0, std::fabs(num)))
          << "param grad at " << i;
    }
  }
}

Tensor random_input(std::vector<std::int64_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(std::move(shape));
  for (std::int64_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}

}  // namespace

TEST(Dense, ForwardShape) {
  Rng rng(1);
  Dense d(8, 5, rng);
  Tensor y = d.forward(random_input({3, 8}, 2), true);
  EXPECT_EQ(y.dim(0), 3);
  EXPECT_EQ(y.dim(1), 5);
}

TEST(Dense, FlattensHigherRankInput) {
  Rng rng(1);
  Dense d(12, 4, rng);
  Tensor y = d.forward(random_input({2, 3, 2, 2}, 3), true);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 4);
}

TEST(Dense, RejectsFanInMismatch) {
  Rng rng(1);
  Dense d(8, 5, rng);
  EXPECT_THROW(d.forward(random_input({3, 9}, 2), true),
               std::invalid_argument);
}

TEST(Dense, BiasApplied) {
  Rng rng(1);
  Dense d(2, 2, rng);
  d.weight_param().value.zero();
  d.bias_param().value[0] = 3.0f;
  d.bias_param().value[1] = -1.0f;
  Tensor y = d.forward(random_input({1, 2}, 4), true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), -1.0f);
}

TEST(Dense, GradCheck) {
  Rng rng(7);
  Dense d(6, 4, rng);
  grad_check(d, random_input({3, 6}, 8));
}

// MatrixOp layout contract: weights()[r * fan_out() + c] is the weight
// from input row r to output column c. A single unit weight there must
// route a one-hot input at row r to output column c and nowhere else.
TEST(Dense, WeightsSpanIsRowMajorInputByOutput) {
  Rng rng(1);
  Dense d(3, 2, rng, /*bias=*/false);
  ASSERT_EQ(d.fan_in(), 3);
  ASSERT_EQ(d.fan_out(), 2);
  ASSERT_EQ(d.weights().size(), 6u);
  for (std::int64_t r = 0; r < d.fan_in(); ++r) {
    for (std::int64_t c = 0; c < d.fan_out(); ++c) {
      std::ranges::fill(d.weights(), 0.0f);
      d.weights()[static_cast<std::size_t>(r * d.fan_out() + c)] = 1.0f;
      Tensor x({1, 3});
      x[r] = 2.0f;
      const Tensor y = d.forward(x, /*train=*/false);
      for (std::int64_t o = 0; o < d.fan_out(); ++o) {
        EXPECT_EQ(y.at(0, o), o == c ? 2.0f : 0.0f)
            << "row " << r << ", column " << c << ", output " << o;
      }
    }
  }
}

TEST(Conv2D, ForwardShape) {
  Rng rng(1);
  Conv2D c(3, 8, 3, 1, 1, rng);
  Tensor y = c.forward(random_input({2, 3, 10, 10}, 5), true);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 8);
  EXPECT_EQ(y.dim(2), 10);
  EXPECT_EQ(y.dim(3), 10);
}

TEST(Conv2D, StrideShape) {
  Rng rng(1);
  Conv2D c(2, 4, 3, 2, 1, rng);
  Tensor y = c.forward(random_input({1, 2, 8, 8}, 5), true);
  EXPECT_EQ(y.dim(2), 4);
  EXPECT_EQ(y.dim(3), 4);
}

TEST(Conv2D, RejectsInputSmallerThanKernel) {
  // A 3x3 kernel at stride 2 without padding does not fit a 2x2 or a 3x2
  // image; conv_out_dim alone would still report one output position.
  Rng rng(1);
  Conv2D c(1, 1, 3, 2, 0, rng);
  EXPECT_THROW(c.forward(random_input({1, 1, 2, 2}, 2), false),
               std::invalid_argument);
  EXPECT_THROW(c.forward(random_input({1, 1, 3, 2}, 2), false),
               std::invalid_argument);
  // With one pixel of padding it fits a 1x1 image exactly.
  Conv2D padded(1, 1, 3, 2, 1, rng);
  EXPECT_EQ(padded.forward(random_input({1, 1, 1, 1}, 2), false).shape(),
            (std::vector<std::int64_t>{1, 1, 1, 1}));
}

TEST(Conv2D, MatchesManualConvolution) {
  Rng rng(2);
  Conv2D c(1, 1, 3, 1, 0, rng, /*bias=*/false);
  // Set the kernel to an averaging filter.
  std::ranges::fill(c.weights(), 1.0f / 9.0f);
  Tensor x({1, 1, 3, 3});
  x.fill(9.0f);
  Tensor y = c.forward(x, true);
  ASSERT_EQ(y.size(), 1);
  EXPECT_NEAR(y[0], 9.0f, 1e-5f);
}

// Row r of the conv matrix is the kernel tap (channel, ky, kx) with
// r = (channel * K + ky) * K + kx, as im2col lays it out. An input the size
// of the kernel has one output position, and its NCHW offset of that tap
// is r too, so a one-hot input at r meets exactly weights()[r * OC + c].
TEST(Conv2D, WeightsSpanIsRowMajorTapByOutputChannel) {
  Rng rng(2);
  Conv2D conv(2, 3, 2, 1, 0, rng, /*bias=*/false);
  ASSERT_EQ(conv.fan_in(), 8);
  ASSERT_EQ(conv.fan_out(), 3);
  ASSERT_EQ(conv.weights().size(), 24u);
  for (std::int64_t r = 0; r < conv.fan_in(); ++r) {
    for (std::int64_t c = 0; c < conv.fan_out(); ++c) {
      std::ranges::fill(conv.weights(), 0.0f);
      conv.weights()[static_cast<std::size_t>(r * conv.fan_out() + c)] = 1.0f;
      Tensor x({1, 2, 2, 2});
      x[r] = 2.0f;
      const Tensor y = conv.forward(x, /*train=*/false);
      ASSERT_EQ(y.size(), conv.fan_out());
      for (std::int64_t o = 0; o < conv.fan_out(); ++o) {
        EXPECT_EQ(y[o], o == c ? 2.0f : 0.0f)
            << "row " << r << ", column " << c << ", output " << o;
      }
    }
  }
}

TEST(Conv2D, GradCheckNoPad) {
  Rng rng(3);
  Conv2D c(2, 3, 3, 1, 0, rng);
  grad_check(c, random_input({2, 2, 5, 5}, 6));
}

TEST(Conv2D, GradCheckPadStride) {
  Rng rng(4);
  Conv2D c(2, 2, 3, 2, 1, rng);
  grad_check(c, random_input({2, 2, 6, 6}, 7));
}

TEST(Conv2D, FanInFanOut) {
  Rng rng(1);
  Conv2D c(3, 8, 5, 1, 2, rng);
  EXPECT_EQ(c.fan_in(), 3 * 5 * 5);
  EXPECT_EQ(c.fan_out(), 8);
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU r;
  Tensor x({4});
  x[0] = -1.0f;
  x[1] = 0.0f;
  x[2] = 2.0f;
  x[3] = -0.5f;
  Tensor y = r.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReLU, BackwardMasks) {
  ReLU r;
  Tensor x({2});
  x[0] = -1.0f;
  x[1] = 1.0f;
  (void)r.forward(x, true);
  Tensor g({2});
  g.fill(5.0f);
  Tensor gi = r.backward(g);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 5.0f);
}

TEST(ReLU, MatchesBranchyOracleOnSpecialValues) {
  // Oracle: the per-element branch form. Copy, then either set the mask
  // or zero the output; backward copies and scales.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> special{
      -0.0f, 0.0f,   nan,     -nan,     inf,     -inf,    denorm,
      -denorm, 1e-40f, -1e-40f, std::numeric_limits<float>::min(),
      -std::numeric_limits<float>::min(), std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max(), 1.5f,  -2.5f};
  const auto n = static_cast<std::int64_t>(special.size());
  const auto same = [](const Tensor& a, const Tensor& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.size()) * sizeof(float)) ==
               0;
  };
  ReLU relu;
  // Twice through one layer: the second pass reuses the mask buffer.
  for (int pass = 0; pass < 2; ++pass) {
    Tensor x({2, n});
    for (std::int64_t i = 0; i < n; ++i) {
      x[i] = special[static_cast<std::size_t>(i)];
      x[n + i] = special[static_cast<std::size_t>(pass == 0 ? i : n - 1 - i)];
    }
    Tensor y_ref = x;
    Tensor mask({2, n});
    for (std::int64_t i = 0; i < y_ref.size(); ++i) {
      if (y_ref[i] > 0.0f) {
        mask[i] = 1.0f;
      } else {
        y_ref[i] = 0.0f;
      }
    }
    const Tensor y = relu.forward(x, true);
    EXPECT_TRUE(same(y, y_ref)) << "pass " << pass;

    // Special gradients too: 0 * inf and NaN must come out as before.
    Tensor g({2, n});
    for (std::int64_t i = 0; i < g.size(); ++i) {
      g[i] = special[static_cast<std::size_t>((i * 5 + pass) % n)];
    }
    Tensor gi_ref = g;
    for (std::int64_t i = 0; i < gi_ref.size(); ++i) gi_ref[i] *= mask[i];
    EXPECT_TRUE(same(relu.backward(g), gi_ref)) << "pass " << pass;
    // The mask itself, read back through a gradient of ones.
    Tensor ones({2, n});
    ones.fill(1.0f);
    EXPECT_TRUE(same(relu.backward(ones), mask)) << "pass " << pass;
  }
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  Tensor x = random_input({2, 3, 4, 4}, 9);
  Tensor y = f.forward(x, true);
  EXPECT_EQ(y.rank(), 2);
  EXPECT_EQ(y.dim(1), 48);
  Tensor gi = f.backward(y);
  EXPECT_EQ(gi.rank(), 4);
  EXPECT_EQ(gi.dim(3), 4);
}

TEST(MaxPool2D, ForwardPicksMax) {
  MaxPool2D p(2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1;
  x[1] = 5;
  x[2] = 3;
  x[3] = 2;
  Tensor y = p.forward(x, true);
  ASSERT_EQ(y.size(), 1);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
}

TEST(MaxPool2D, BackwardRoutesToArgmax) {
  MaxPool2D p(2);
  Tensor x({1, 1, 2, 2});
  x[0] = 1;
  x[1] = 5;
  x[2] = 3;
  x[3] = 2;
  (void)p.forward(x, true);
  Tensor g({1, 1, 1, 1});
  g[0] = 7.0f;
  Tensor gi = p.backward(g);
  EXPECT_FLOAT_EQ(gi[1], 7.0f);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
}

namespace {

// The max-pool window scan as a per-element branch, the oracle for the
// select form in maxpool2d_image.
template <typename T>
void maxpool_oracle(const T* img, std::int64_t h, std::int64_t w,
                    std::int64_t window, T* out, std::int64_t* argmax) {
  std::int64_t oi = 0;
  for (std::int64_t oy = 0; oy < h / window; ++oy) {
    for (std::int64_t ox = 0; ox < w / window; ++ox, ++oi) {
      T best = -std::numeric_limits<T>::infinity();
      std::int64_t best_idx = 0;
      for (std::int64_t ky = 0; ky < window; ++ky) {
        for (std::int64_t kx = 0; kx < window; ++kx) {
          const std::int64_t i = (oy * window + ky) * w + ox * window + kx;
          if (img[i] > best) {
            best = img[i];
            best_idx = i;
          }
        }
      }
      out[oi] = best;
      argmax[oi] = best_idx;
    }
  }
}

template <typename T>
void expect_maxpool_matches_oracle_on_every_special_window() {
  // Every 2x2 window over eight special values (8^4 windows side by
  // side): ties, signed zeros, infinities, NaN and denormals.
  const T inf = std::numeric_limits<T>::infinity();
  const std::vector<T> special{-inf, T(-1), T(-0.0), T(0),
                               std::numeric_limits<T>::denorm_min(), T(1),
                               inf, std::numeric_limits<T>::quiet_NaN()};
  const std::int64_t windows = 8 * 8 * 8 * 8, w = 2 * windows;
  std::vector<T> img(static_cast<std::size_t>(2 * w));
  for (std::int64_t q = 0; q < windows; ++q) {
    img[static_cast<std::size_t>(2 * q)] = special[q & 7];
    img[static_cast<std::size_t>(2 * q + 1)] = special[(q >> 3) & 7];
    img[static_cast<std::size_t>(w + 2 * q)] = special[(q >> 6) & 7];
    img[static_cast<std::size_t>(w + 2 * q + 1)] = special[(q >> 9) & 7];
  }
  std::vector<T> out(static_cast<std::size_t>(windows)), ref(out.size());
  std::vector<std::int64_t> am(out.size()), am_ref(out.size());
  maxpool2d_image(img.data(), 1, 2, w, 2, out.data(), am.data());
  maxpool_oracle(img.data(), 2, w, 2, ref.data(), am_ref.data());
  EXPECT_EQ(std::memcmp(out.data(), ref.data(), out.size() * sizeof(T)), 0);
  EXPECT_EQ(am, am_ref);
}

}  // namespace

TEST(MaxPool2D, MatchesBranchyOracleOnEverySpecialWindow) {
  expect_maxpool_matches_oracle_on_every_special_window<float>();
  expect_maxpool_matches_oracle_on_every_special_window<double>();
}

TEST(MaxPool2D, GradCheck) {
  MaxPool2D p(2);
  grad_check(p, random_input({2, 2, 4, 4}, 10));
}

TEST(GlobalAvgPool, ForwardAverages) {
  GlobalAvgPool p;
  Tensor x({1, 2, 2, 2});
  for (std::int64_t i = 0; i < 4; ++i) x[i] = 4.0f;   // channel 0
  for (std::int64_t i = 4; i < 8; ++i) x[i] = 8.0f;   // channel 1
  Tensor y = p.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 8.0f);
}

TEST(GlobalAvgPool, GradCheck) {
  GlobalAvgPool p;
  grad_check(p, random_input({2, 3, 3, 3}, 11));
}

TEST(BatchNorm2D, NormalizesTrainBatch) {
  BatchNorm2D bn(2);
  Tensor x = random_input({4, 2, 3, 3}, 12);
  Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1.
  for (int c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    int count = 0;
    for (std::int64_t n = 0; n < 4; ++n) {
      for (std::int64_t i = 0; i < 9; ++i) {
        mean += y.at(n, c, i / 3, i % 3);
        ++count;
      }
    }
    mean /= count;
    for (std::int64_t n = 0; n < 4; ++n) {
      for (std::int64_t i = 0; i < 9; ++i) {
        const double d = y.at(n, c, i / 3, i % 3) - mean;
        var += d * d;
      }
    }
    var /= count;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm2D, GradCheckTrainMode) {
  BatchNorm2D bn(2);
  grad_check(bn, random_input({3, 2, 2, 2}, 13), /*train=*/true, 5e-2);
}

TEST(BatchNorm2D, GradCheckEvalMode) {
  BatchNorm2D bn(2);
  // Populate running stats first.
  for (int i = 0; i < 20; ++i) {
    (void)bn.forward(random_input({4, 2, 2, 2}, 14 + i), true);
  }
  grad_check(bn, random_input({3, 2, 2, 2}, 40), /*train=*/false);
}

TEST(BatchNorm2D, EvalUsesRunningStats) {
  BatchNorm2D bn(1);
  Tensor x({2, 1, 2, 2});
  x.fill(2.0f);
  // Eval before any training forward: running mean 0, var 1.
  Tensor y = bn.forward(x, false);
  EXPECT_NEAR(y[0], 2.0f, 1e-3f);
}

TEST(Sequential, ChainsAndCollects) {
  Rng rng(1);
  Sequential s;
  s.emplace<Dense>(4, 8, rng);
  s.emplace<ReLU>();
  s.emplace<Dense>(8, 2, rng);
  EXPECT_EQ(s.children().size(), 3u);
  EXPECT_EQ(s.params().size(), 4u);  // two weights + two biases
  Tensor y = s.forward(random_input({2, 4}, 15), true);
  EXPECT_EQ(y.dim(1), 2);
  std::vector<Layer*> all;
  collect_layers(&s, all);
  EXPECT_EQ(all.size(), 4u);  // sequential + 3 children
}

TEST(Sequential, ForwardLeavesItsInputUnchanged) {
  Rng rng(3);
  Sequential s;
  s.emplace<ReLU>();
  s.emplace<Dense>(6, 4, rng);
  s.emplace<ReLU>();
  const Tensor x = random_input({3, 6}, 17);
  const Tensor before = x;
  const Tensor y = s.forward(x, true);
  ASSERT_EQ(x.shape(), before.shape());
  EXPECT_EQ(std::memcmp(x.data(), before.data(),
                        static_cast<std::size_t>(x.size()) * sizeof(float)),
            0);
  // And the result is the layers applied one by one.
  Tensor h = x;
  for (Layer* l : s.children()) h = l->forward(h, true);
  EXPECT_EQ(std::memcmp(y.data(), h.data(),
                        static_cast<std::size_t>(y.size()) * sizeof(float)),
            0);
}

TEST(Sequential, GradCheck) {
  Rng rng(2);
  Sequential s;
  s.emplace<Dense>(5, 6, rng);
  s.emplace<ReLU>();
  s.emplace<Dense>(6, 3, rng);
  grad_check(s, random_input({2, 5}, 16));
}

TEST(Residual, IdentityShortcutForward) {
  Rng rng(3);
  auto main = std::make_unique<Sequential>();
  main->emplace<Conv2D>(2, 2, 3, 1, 1, rng, false);
  Residual res(std::move(main));
  Tensor x = random_input({1, 2, 4, 4}, 17);
  Tensor y = res.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Residual, IdentityPathDominatesWithZeroMain) {
  Rng rng(3);
  auto main = std::make_unique<Sequential>();
  auto* conv = main->emplace<Conv2D>(1, 1, 1, 1, 0, rng, false);
  conv->weight_param().value.zero();
  Residual res(std::move(main));
  Tensor x({1, 1, 2, 2});
  x[0] = 1.0f;
  x[1] = -1.0f;
  x[2] = 2.0f;
  x[3] = 0.0f;
  Tensor y = res.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 1.0f);   // ReLU(0 + 1)
  EXPECT_FLOAT_EQ(y[1], 0.0f);   // ReLU(0 - 1)
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(Residual, GradCheckIdentity) {
  Rng rng(4);
  auto main = std::make_unique<Sequential>();
  main->emplace<Conv2D>(2, 2, 3, 1, 1, rng);
  Residual res(std::move(main));
  grad_check(res, random_input({2, 2, 4, 4}, 18));
}

TEST(Residual, GradCheckProjection) {
  Rng rng(5);
  auto main = std::make_unique<Sequential>();
  main->emplace<Conv2D>(2, 4, 3, 2, 1, rng);
  auto shortcut = std::make_unique<Sequential>();
  shortcut->emplace<Conv2D>(2, 4, 1, 2, 0, rng);
  Residual res(std::move(main), std::move(shortcut));
  grad_check(res, random_input({2, 2, 4, 4}, 19));
}

TEST(Residual, CollectsNestedChildren) {
  Rng rng(6);
  auto main = std::make_unique<Sequential>();
  main->emplace<Conv2D>(1, 1, 1, 1, 0, rng);
  auto shortcut = std::make_unique<Sequential>();
  shortcut->emplace<Conv2D>(1, 1, 1, 1, 0, rng);
  Residual res(std::move(main), std::move(shortcut));
  std::vector<Layer*> all;
  collect_layers(&res, all);
  // residual + 2 sequentials + 2 convs
  EXPECT_EQ(all.size(), 5u);
}
