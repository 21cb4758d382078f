// Bit-exact oracle for the channel-major Conv2D lowering.
//
// The reference below is the position-major lowering written out as plain
// loops: cols[position, fan_in], y = cols * W then transposed to NCHW,
// dcols = G * W^T scattered back position by position, dW += cols^T * G.
// Conv2D must reproduce its forward output, input gradient, weight
// gradient and bias gradient byte for byte, at any thread count, because
// deployed accuracies and the committed BENCH baselines depend on it: on
// the LeNet and ResNet shapes, and on a sweep of every small geometry,
// which also holds MatrixOp's offset-gradient mode to its byte oracle.
//
// The last part pins Layer::backward_params: skipping the input
// gradient of a network's first parameterised layer leaves every
// parameter gradient byte-identical to a full backward().
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "models/lenet.h"
#include "models/resnet.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/conv_planes.h"
#include "nn/dense.h"
#include "nn/gemm.h"
#include "nn/loss.h"
#include "nn/parallel.h"
#include "nn/sequential.h"
#include "sim_oracles.h"

using namespace rdo;
using nn::Tensor;

namespace {

struct Geometry {
  std::int64_t in_ch, out_ch, kernel, stride, pad, size;
};

void PrintTo(const Geometry& g, std::ostream* os) {
  *os << g.in_ch << "->" << g.out_ch << " k" << g.kernel << " s" << g.stride
      << " p" << g.pad << " " << g.size << "x" << g.size;
}

struct Reference {
  Tensor y, grad_in, dw, db;
};

/// Position-major convolution, written out with the accumulation order of
/// a row-major GEMM over cols[positions, fan_in].
Reference position_major(const Geometry& g, const Tensor& x,
                         const Tensor& w, const Tensor& b,
                         const Tensor& grad_out) {
  const std::int64_t n = x.dim(0), h = x.dim(2), wd = x.dim(3), k = g.kernel;
  const std::int64_t oh = nn::conv_out_dim(h, k, g.stride, g.pad);
  const std::int64_t ow = nn::conv_out_dim(wd, k, g.stride, g.pad);
  const std::int64_t positions = oh * ow, fin = g.in_ch * k * k;
  const std::int64_t oc = g.out_ch;
  Reference ref{Tensor({n, oc, oh, ow}), Tensor({n, g.in_ch, h, wd}),
                Tensor({fin, oc}), Tensor({oc})};
  std::vector<float> cols(static_cast<std::size_t>(positions * fin));
  for (std::int64_t s = 0; s < n; ++s) {
    const float* img = x.data() + s * g.in_ch * h * wd;
    // cols[p, (ch, ky, kx)]
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        float* row = cols.data() + (oy * ow + ox) * fin;
        std::int64_t idx = 0;
        for (std::int64_t ch = 0; ch < g.in_ch; ++ch) {
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx, ++idx) {
              const std::int64_t iy = oy * g.stride - g.pad + ky;
              const std::int64_t ix = ox * g.stride - g.pad + kx;
              row[idx] = (iy >= 0 && iy < h && ix >= 0 && ix < wd)
                             ? img[(ch * h + iy) * wd + ix]
                             : 0.0f;
            }
          }
        }
      }
    }
    const float* gs = grad_out.data() + s * oc * positions;
    float* ys = ref.y.data() + s * oc * positions;
    for (std::int64_t p = 0; p < positions; ++p) {
      const float* row = cols.data() + p * fin;
      for (std::int64_t c = 0; c < oc; ++c) {
        // Forward: y[p, c] = sum_i cols[p, i] W[i, c], zero terms skipped.
        float acc = 0.0f;
        for (std::int64_t i = 0; i < fin; ++i) {
          if (row[i] != 0.0f) acc += row[i] * w.at(i, c);
        }
        ys[c * positions + p] = acc + b[c];
      }
    }
    // dW[i, c] += sum_p cols[p, i] G[p, c], p ascending, zeros skipped.
    for (std::int64_t p = 0; p < positions; ++p) {
      for (std::int64_t i = 0; i < fin; ++i) {
        const float cv = cols[static_cast<std::size_t>(p * fin + i)];
        if (cv == 0.0f) continue;
        for (std::int64_t c = 0; c < oc; ++c) {
          ref.dw.at(i, c) += cv * gs[c * positions + p];
        }
      }
    }
    for (std::int64_t c = 0; c < oc; ++c) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < positions; ++p) acc += gs[c * positions + p];
      ref.db[c] += acc;
    }
    // dcols[p, i] = sum_c G[p, c] W[i, c], scattered position by position.
    float* gi = ref.grad_in.data() + s * g.in_ch * h * wd;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const std::int64_t p = oy * ow + ox;
        std::int64_t idx = 0;
        for (std::int64_t ch = 0; ch < g.in_ch; ++ch) {
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx, ++idx) {
              float acc = 0.0f;
              for (std::int64_t c = 0; c < oc; ++c) {
                acc += gs[c * positions + p] * w.at(idx, c);
              }
              const std::int64_t iy = oy * g.stride - g.pad + ky;
              const std::int64_t ix = ox * g.stride - g.pad + kx;
              if (iy >= 0 && iy < h && ix >= 0 && ix < wd) {
                gi[(ch * h + iy) * wd + ix] += 0.0f + acc;
              }
            }
          }
        }
      }
    }
  }
  return ref;
}

/// Random tensor with about a third of its entries exactly zero (as after
/// a ReLU), so the zero-skipping accumulation paths are exercised.
Tensor sparse_random(std::vector<std::int64_t> shape, nn::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    const double u = rng.uniform(-1.0, 1.0);
    t[i] = u < -0.33 ? 0.0f : static_cast<float>(u);
  }
  return t;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.size())) == 0;
}

class ConvLowering
    : public ::testing::TestWithParam<std::tuple<Geometry, int>> {
 protected:
  void TearDown() override { nn::set_thread_count(0); }
};

/// Runs a fresh Conv2D of geometry `g` forward and backward over `n`
/// random h x w images and compares all four outputs with position_major;
/// returns the names of the outputs whose bytes differ.
std::string reference_mismatches(const Geometry& g, std::int64_t n,
                                 std::int64_t h, std::int64_t w,
                                 nn::Rng& rng) {
  nn::Conv2D conv(g.in_ch, g.out_ch, g.kernel, g.stride, g.pad, rng);
  for (std::int64_t i = 0; i < conv.bias_param().value.size(); ++i) {
    conv.bias_param().value[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  const Tensor x = sparse_random({n, g.in_ch, h, w}, rng);
  const Tensor y = conv.forward(x, /*train=*/true);
  const Tensor grad_out = sparse_random(y.shape(), rng);
  const Tensor grad_in = conv.backward(grad_out);

  const Reference ref =
      position_major(g, x, conv.weight_param().value,
                     conv.bias_param().value, grad_out);
  std::string bad;
  if (!same_bytes(y, ref.y)) bad += " forward";
  if (!same_bytes(grad_in, ref.grad_in)) bad += " input-gradient";
  if (!same_bytes(conv.weight_param().grad, ref.dw)) bad += " dW";
  if (!same_bytes(conv.bias_param().grad, ref.db)) bad += " bias-grad";
  return bad;
}

TEST_P(ConvLowering, MatchesPositionMajorReferenceBitForBit) {
  const auto [g, threads] = GetParam();
  nn::set_thread_count(threads);
  nn::Rng rng(static_cast<std::uint64_t>(g.in_ch * 131 + g.out_ch * 17 +
                                         g.kernel * 5 + g.stride + g.pad));
  EXPECT_EQ(reference_mismatches(g, 3, g.size, g.size, rng), "");
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvLowering,
    ::testing::Combine(
        ::testing::Values(Geometry{1, 6, 5, 1, 2, 28},   // LeNet conv1
                          Geometry{6, 16, 5, 1, 0, 14},  // LeNet conv2
                          Geometry{3, 6, 3, 2, 0, 9},    // stride 2, pad 0
                          Geometry{4, 16, 5, 2, 2, 11},  // stride 2, pad 2
                          Geometry{8, 16, 1, 1, 0, 6},   // 1x1 shortcut
                          Geometry{8, 6, 1, 2, 0, 7}),   // strided 1x1
        ::testing::Values(1, 4)));

// ---------------------------------------------------------------------------
// Every small geometry, byte for byte: forward, input gradient, dW and
// bias gradient against the position-major reference, and the
// offset-gradient mode against its own oracle: the im2col rows of each
// group summed in ascending tap order onto +0.0, then
// G += Cg * grad_out^T through gemm_a_bt_accumulate. Both at 1 and 4
// pool threads.

/// Calls fn(c, h, w, k, stride, pad) for every small geometry and returns
/// how many it ran: c in {1, 3}, h in 1..9 with w = 10 - h and 28 x 28,
/// k in {1, 2, 3, 5, 7}, stride 1..3 and pad 0..k where the kernel fits.
/// Large pads and strides give taps that never land inside the image.
/// Stops at the first failure.
template <typename Fn>
int for_each_small_geometry(Fn fn) {
  int count = 0;
  for (const std::int64_t c : {1, 3}) {
    for (const std::int64_t h : {1, 2, 3, 4, 5, 6, 7, 8, 9, 28}) {
      const std::int64_t w = h == 28 ? 28 : 10 - h;
      for (const std::int64_t k : {1, 2, 3, 5, 7}) {
        for (std::int64_t stride = 1; stride <= 3; ++stride) {
          for (std::int64_t pad = 0; pad <= k; ++pad) {
            if (h + 2 * pad < k || w + 2 * pad < k) continue;
            fn(c, h, w, k, stride, pad);
            if (::testing::Test::HasFailure()) return count;
            ++count;
          }
        }
      }
    }
  }
  return count;
}

/// sparse_random with every other zero made -0.0.
Tensor signed_zero_random(std::vector<std::int64_t> shape, nn::Rng& rng) {
  Tensor t = sparse_random(std::move(shape), rng);
  bool negative = false;
  for (std::int64_t i = 0; i < t.size(); ++i) {
    if (t[i] != 0.0f) continue;
    if (negative) t[i] = -0.0f;
    negative = !negative;
  }
  return t;
}

class ConvSweep : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { nn::set_thread_count(GetParam()); }
  void TearDown() override { nn::set_thread_count(0); }
};

TEST_P(ConvSweep, EveryGeometryMatchesPositionMajorReference) {
  nn::Rng rng(21);
  const int geometries = for_each_small_geometry(
      [&](std::int64_t c, std::int64_t h, std::int64_t w, std::int64_t k,
          std::int64_t stride, std::int64_t pad) {
        const Geometry g{c, 3, k, stride, pad, h};
        EXPECT_EQ(reference_mismatches(g, 2, h, w, rng), "")
            << ::testing::PrintToString(g) << " w=" << w;
      });
  EXPECT_GT(geometries, 400);
}

TEST_P(ConvSweep, OffsetGradMatchesSummedIm2colRows) {
  nn::Rng rng(19);
  constexpr std::int64_t kOut = 3, kBatch = 2;
  const int geometries = for_each_small_geometry(
      [&](std::int64_t c, std::int64_t h, std::int64_t w, std::int64_t k,
          std::int64_t stride, std::int64_t pad) {
        nn::Conv2D conv(c, kOut, k, stride, pad, rng);
        const Tensor x = signed_zero_random({kBatch, c, h, w}, rng);
        const std::int64_t fin = conv.fan_in();
        for (const std::int64_t group :
             std::vector<std::int64_t>{1, 2, 5, 16, fin + 3}) {
          conv.set_offset_group_size(group);
          const Tensor y = conv.forward(x, /*train=*/true);
          const Tensor delta = signed_zero_random(y.shape(), rng);
          conv.backward_params(delta);

          const std::int64_t positions = y.dim(2) * y.dim(3);
          const std::int64_t groups = (fin + group - 1) / group;
          std::vector<float> ref(static_cast<std::size_t>(groups * kOut),
                                 0.0f);
          for (std::int64_t s = 0; s < kBatch; ++s) {
            const std::vector<float> cols = oracle::im2col(
                x.data() + s * c * h * w, c, h, w, k, stride, pad);
            std::vector<float> sums(
                static_cast<std::size_t>(groups * positions), 0.0f);
            for (std::int64_t t = 0; t < fin; ++t) {
              for (std::int64_t p = 0; p < positions; ++p) {
                sums[static_cast<std::size_t>(t / group * positions + p)] +=
                    cols[static_cast<std::size_t>(t * positions + p)];
              }
            }
            nn::gemm_a_bt_accumulate(sums.data(),
                                     delta.data() + s * kOut * positions,
                                     ref.data(), groups, positions, kOut);
          }
          const std::span<float> got = conv.offset_grad();
          ASSERT_EQ(got.size(), ref.size());
          ASSERT_EQ(std::memcmp(got.data(), ref.data(),
                                ref.size() * sizeof(float)),
                    0)
              << "c=" << c << " h=" << h << " w=" << w << " k=" << k
              << " stride=" << stride << " pad=" << pad << " group=" << group;
        }
      });
  EXPECT_GT(geometries, 400);
}

INSTANTIATE_TEST_SUITE_P(Threads, ConvSweep, ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// backward_params: the first layer's input gradient is never built.

std::vector<Tensor> param_grads_after(nn::Layer& net, const Tensor& x,
                                      const std::vector<int>& labels,
                                      bool params_only) {
  for (nn::Param* p : net.params()) p->zero_grad();
  nn::SoftmaxCrossEntropy loss;
  (void)loss.forward(net.forward(x, /*train=*/true), labels);
  if (params_only) {
    net.backward_params(loss.backward());
  } else {
    (void)net.backward(loss.backward());
  }
  std::vector<Tensor> grads;
  for (nn::Param* p : net.params()) grads.push_back(p->grad);
  return grads;
}

void expect_params_only_backward_identical(const nn::Layer& net,
                                           const Tensor& x, int classes) {
  std::vector<int> labels;
  for (std::int64_t i = 0; i < x.dim(0); ++i) {
    labels.push_back(static_cast<int>(i % classes));
  }
  std::unique_ptr<nn::Layer> full = net.clone();
  std::unique_ptr<nn::Layer> skip = net.clone();
  const std::vector<Tensor> a = param_grads_after(*full, x, labels, false);
  const std::vector<Tensor> b = param_grads_after(*skip, x, labels, true);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_bytes(a[i], b[i])) << "param " << i;
  }
}

TEST(BackwardParams, LeNetGradientsByteIdentical) {
  nn::Rng rng(3);
  models::LeNetConfig cfg;
  cfg.image_size = 16;
  auto net = models::make_lenet(cfg, rng);
  expect_params_only_backward_identical(
      *net, sparse_random({4, 1, 16, 16}, rng), cfg.classes);
}

TEST(BackwardParams, ResNetGradientsByteIdentical) {
  nn::Rng rng(5);
  models::ResNetConfig cfg;
  cfg.base_channels = 4;
  auto net = models::make_resnet(cfg, rng);
  expect_params_only_backward_identical(
      *net, sparse_random({2, 3, 8, 8}, rng), cfg.classes);
}

TEST(BackwardParams, MlpBehindParameterFreeLayersByteIdentical) {
  nn::Rng rng(7);
  nn::Sequential net;
  net.emplace<nn::Flatten>();
  net.emplace<nn::ReLU>();
  net.emplace<nn::Dense>(36, 12, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Dense>(12, 5, rng);
  expect_params_only_backward_identical(net, sparse_random({6, 1, 6, 6}, rng),
                                        5);
}

}  // namespace
