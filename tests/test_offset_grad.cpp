// Eq. 8 offset gradient vs the dW-fold oracle.
//
// Post-writing tuning trains one digital offset per group of m rows and
// per column. MatrixOp's offset-gradient mode accumulates
//   G[g, c] = sum_n (sum_{i in g} x[n, i]) * delta[n, c]
// directly (paper Eq. 8). The oracle below is the definition it replaces:
// run a normal backward, then fold the full weight gradient,
//   G_ref[g, c] = sum_{i in g} dW[i, c],
// and, at plan level, apply the complement sign and dequantization scale.
// The two sum the same products in different orders, so they agree to a
// float tolerance, stated as kRelTol of the largest |G_ref| of the layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/deploy.h"
#include "core/plan.h"
#include "data/synthetic.h"
#include "models/lenet.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/gemm.h"
#include "nn/loss.h"
#include "nn/sequential.h"
#include "nn/trainer.h"

using namespace rdo;
using nn::Tensor;

namespace {

constexpr double kRelTol = 2e-5;

/// The dW-fold: G_ref[g, c] = sum over the group's rows of dW[r, c].
std::vector<float> fold_weight_grad(nn::MatrixOp& op, std::int64_t m) {
  const std::int64_t rows = op.fan_in(), cols = op.fan_out();
  const std::int64_t groups = (rows + m - 1) / m;
  std::vector<float> g(static_cast<std::size_t>(groups * cols), 0.0f);
  const Tensor& dw = op.weight_param().grad;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      g[static_cast<std::size_t>(r / m * cols + c)] += dw.at(r, c);
    }
  }
  return g;
}

void expect_close(const std::vector<float>& ref, std::span<const float> got,
                  const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  float scale = 0.0f;
  for (float v : ref) scale = std::max(scale, std::fabs(v));
  ASSERT_GT(scale, 0.0f) << what << ": oracle gradient is all zero";
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], kRelTol * scale) << what << " [" << i << "]";
  }
}

Tensor random_tensor(std::vector<std::int64_t> shape, nn::Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    const double u = rng.uniform(-1.0, 1.0);
    t[i] = u < -0.3 ? 0.0f : static_cast<float>(u);
  }
  return t;
}

bool all_zero(const Tensor& t) {
  return std::all_of(t.data(), t.data() + t.size(),
                     [](float v) { return v == 0.0f; });
}

/// One layer, one batch: offset mode against the dW-fold of a normal-mode
/// copy. Also checks that offset mode leaves dW and the bias gradient
/// alone and returns the same input gradient byte for byte.
template <typename L>
void check_layer(const L& layer, const Tensor& x, std::int64_t m) {
  L normal = layer, offset = layer;
  offset.set_offset_group_size(m);
  const Tensor y = normal.forward(x, /*train=*/false);
  (void)offset.forward(x, /*train=*/false);
  nn::Rng rng(static_cast<std::uint64_t>(m) + 5);
  const Tensor delta = random_tensor(y.shape(), rng);
  const Tensor gin_normal = normal.backward(delta);
  const Tensor gin_offset = offset.backward(delta);

  const std::string what = layer.name() + " m=" + std::to_string(m);
  expect_close(fold_weight_grad(normal, m), offset.offset_grad(), what);
  EXPECT_TRUE(all_zero(offset.weight_param().grad)) << what;
  EXPECT_TRUE(all_zero(offset.bias_param().grad)) << what;
  ASSERT_EQ(gin_normal.shape(), gin_offset.shape());
  EXPECT_EQ(std::memcmp(gin_normal.data(), gin_offset.data(),
                        sizeof(float) *
                            static_cast<std::size_t>(gin_normal.size())),
            0)
      << what;

  // Leaving the mode restores dW accumulation.
  offset.set_offset_group_size(0);
  EXPECT_TRUE(offset.offset_grad().empty());
  (void)offset.forward(x, /*train=*/false);
  offset.backward_params(delta);
  EXPECT_FALSE(all_zero(offset.weight_param().grad)) << what;
}

}  // namespace

TEST(OffsetGrad, DenseMatchesWeightGradFold) {
  nn::Rng rng(1);
  const nn::Dense dense(36, 10, rng);
  const Tensor x = random_tensor({7, 36}, rng);
  // 1 (one row per group), 16 (ragged last group: 16 + 16 + 4),
  // fan_in (one group), > fan_in (one short group).
  for (std::int64_t m : {1, 16, 36, 50}) check_layer(dense, x, m);
}

TEST(OffsetGrad, DenseGroupSumsRoundLikeThePerRowLoop) {
  // Byte oracle of Dense's offset mode: each sample's inputs are added
  // into their group's sum one row at a time in ascending row order,
  // starting at +0.0, then G += Xg^T * dY.
  nn::Rng rng(6);
  nn::Dense dense(36, 10, rng);
  const Tensor x = random_tensor({7, 36}, rng);
  for (std::int64_t m : {1, 5, 16, 36, 50}) {
    dense.set_offset_group_size(m);
    const Tensor y = dense.forward(x, /*train=*/false);
    const Tensor delta = random_tensor(y.shape(), rng);
    dense.backward_params(delta);
    const std::int64_t n = x.dim(0), groups = (36 + m - 1) / m;
    std::vector<float> xg(static_cast<std::size_t>(n * groups), 0.0f);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t r = 0; r < 36; ++r) {
        xg[static_cast<std::size_t>(i * groups + r / m)] += x.at(i, r);
      }
    }
    std::vector<float> ref(static_cast<std::size_t>(groups * 10), 0.0f);
    nn::gemm_at_b_accumulate(xg.data(), delta.data(), ref.data(), groups, n,
                             10);
    const std::span<float> got = dense.offset_grad();
    ASSERT_EQ(got.size(), ref.size());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)),
              0)
        << "m = " << m;
  }
}

TEST(OffsetGrad, LeNetConv1MatchesWeightGradFold) {
  nn::Rng rng(2);
  const nn::Conv2D conv(1, 6, 5, 1, 2, rng);  // fan_in 25: 16 + 9 at m=16
  const Tensor x = random_tensor({4, 1, 12, 12}, rng);
  for (std::int64_t m : {1, 16, 25, 40}) check_layer(conv, x, m);
}

TEST(OffsetGrad, LeNetConv2MatchesWeightGradFold) {
  nn::Rng rng(3);
  const nn::Conv2D conv(6, 16, 5, 1, 0, rng);  // fan_in 150
  const Tensor x = random_tensor({3, 6, 10, 10}, rng);
  for (std::int64_t m : {1, 16, 150, 256}) check_layer(conv, x, m);
}

TEST(OffsetGrad, StridedConvMatchesWeightGradFold) {
  nn::Rng rng(4);
  const nn::Conv2D conv(4, 6, 3, 2, 1, rng);  // fan_in 36
  const Tensor x = random_tensor({3, 4, 9, 9}, rng);
  for (std::int64_t m : {1, 16, 36, 64}) check_layer(conv, x, m);
}

// ---------------------------------------------------------------------------
// Plan level: dL/db for every offset register of a deployed LeNet, with the
// plan's m, complement flags and dequantization scales.

namespace {

struct PlanFixture {
  data::SyntheticDataset ds;
  std::unique_ptr<nn::Sequential> net;

  PlanFixture() {
    data::SyntheticSpec spec = data::mnist_like();
    spec.height = spec.width = 16;
    spec.classes = 4;
    spec.train_per_class = 8;
    spec.test_per_class = 2;
    spec.seed = 5;
    ds = data::make_synthetic(spec);
    nn::Rng rng(6);
    models::LeNetConfig cfg;
    cfg.image_size = 16;
    cfg.classes = 4;
    net = models::make_lenet(cfg, rng);
  }

  [[nodiscard]] core::DeployOptions options(core::Scheme s, int m) const {
    core::DeployOptions o;
    o.scheme = s;
    o.offsets.m = m;
    o.cell = {rram::CellKind::SLC, 200.0};
    o.variation.sigma = 0.5;
    o.lut_k_sets = 4;
    o.lut_j_cycles = 4;
    o.grad_samples = 16;
    o.seed = 3;
    return o;
  }
};

/// Runs one batch through two copies of the deployed twin, one per
/// gradient mode, and compares dL/db for every register of every layer.
void check_plan(const core::DeploymentPlan& plan, const PlanFixture& f) {
  core::EffectiveWeightBackend backend(plan, *f.net);
  backend.program_cycle(0);
  std::unique_ptr<nn::Layer> normal = backend.network().clone();
  std::unique_ptr<nn::Layer> offset = backend.network().clone();
  const std::vector<nn::MatrixOp*> normal_ops = nn::matrix_ops(*normal);
  const std::vector<nn::MatrixOp*> offset_ops = nn::matrix_ops(*offset);
  ASSERT_EQ(normal_ops.size(), plan.layers.size());
  for (std::size_t li = 0; li < plan.layers.size(); ++li) {
    offset_ops[li]->set_offset_group_size(plan.opt.offsets.m);
  }
  const Tensor& batch = f.ds.train_images;
  for (nn::Layer* net : {normal.get(), offset.get()}) {
    nn::SoftmaxCrossEntropy loss;
    (void)loss.forward(net->forward(batch, /*train=*/false),
                       f.ds.train_labels);
    net->backward_params(loss.backward());
  }
  for (std::size_t li = 0; li < plan.layers.size(); ++li) {
    const core::PlanLayer& pl = plan.layers[li];
    std::vector<float> ref = fold_weight_grad(*normal_ops[li], plan.opt.offsets.m);
    for (std::size_t gi = 0; gi < ref.size(); ++gi) {
      ref[gi] *= (pl.assign.complemented[gi] ? -1.0f : 1.0f) * pl.lq.scale;
    }
    const std::span<float> got = offset_ops[li]->offset_grad();
    (void)core::signed_offset_gradient(pl, got);
    expect_close(ref, got, "layer " + std::to_string(li));
  }
}

}  // namespace

TEST(OffsetGrad, PlanWithComplementedGroupsMatchesOracle) {
  const PlanFixture f;
  const core::DeploymentPlan plan = core::compile_plan(
      *f.net, f.options(core::Scheme::VAWOStarPWT, 16), f.ds.train());
  std::int64_t complemented = 0;
  for (const core::PlanLayer& pl : plan.layers) {
    complemented += std::count(pl.assign.complemented.begin(),
                               pl.assign.complemented.end(), 1);
  }
  ASSERT_GT(complemented, 0) << "fixture must exercise complemented groups";
  check_plan(plan, f);
}
