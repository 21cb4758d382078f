// Numerical-equivalence properties that justify the pipeline's fast path:
// absorbing the digital offsets into effective weights is exactly the
// hardware computation of Eq. (1)/(7), including the complement
// post-processing of §III-C.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "core/backend.h"
#include "core/deploy.h"
#include "core/plan.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "rram/crossbar.h"

using namespace rdo;
using namespace rdo::core;

namespace {

struct Fixture {
  data::SyntheticDataset ds;
  nn::Sequential net;
  nn::Dense* dense0 = nullptr;

  Fixture() {
    data::SyntheticSpec spec = data::mnist_like();
    spec.height = spec.width = 8;
    spec.classes = 4;
    spec.train_per_class = 20;
    spec.test_per_class = 8;
    spec.seed = 33;
    ds = data::make_synthetic(spec);
    nn::Rng rng(6);
    net.emplace<nn::Flatten>();
    dense0 = net.emplace<nn::Dense>(64, 16, rng);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Dense>(16, 4, rng);
    nn::SGD opt(net.params(), 0.1f);
    for (int e = 0; e < 6; ++e) {
      nn::train_epoch(net, opt, ds.train(), 16, rng);
    }
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

}  // namespace

TEST(Equivalence, EffectiveWeightsImplementEq7WithComplement) {
  // y_eff (network weights after deployment) must equal the digital
  // computation: per group, sum x*V (analog), plus b * sum(x) (digital),
  // with the complement post-processing (2^n-1) * sum(x) - z' where used.
  auto& f = fixture();
  DeployOptions o;
  o.scheme = Scheme::VAWOStar;  // produces nonzero offsets + complements
  o.offsets.m = 8;
  o.cell = {rram::CellKind::SLC, 200.0};
  o.variation.sigma = 0.6;
  o.seed = 4;
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EffectiveWeightBackend backend(plan, f.net);
  backend.program_cycle(0);

  const PlanLayer& pl = plan.layers[0];
  const EffectiveWeightBackend::LayerState& ls = backend.layers()[0];
  const std::int64_t rows = pl.lq.rows, cols = pl.lq.cols;
  const double maxw = 255.0;
  nn::Rng rng(9);
  std::vector<double> x(static_cast<std::size_t>(rows));
  for (auto& v : x) v = rng.uniform(0.0, 1.0);

  for (std::int64_t c = 0; c < cols; ++c) {
    // Path 1: effective weights as loaded into the backend's twin.
    double y_eff = 0.0;
    for (std::int64_t r = 0; r < rows; ++r) {
      y_eff += x[static_cast<std::size_t>(r)] *
               ls.op->weights()[static_cast<std::size_t>(r * cols + c)];
    }
    // Path 2: explicit hardware computation.
    double y_hw = 0.0;
    double sum_x_total = 0.0;
    for (std::int64_t g = 0; g < pl.assign.groups_per_col; ++g) {
      const std::size_t gi = static_cast<std::size_t>(g * cols + c);
      const std::int64_t r0 = g * o.offsets.m;
      const std::int64_t r1 = std::min(rows, r0 + o.offsets.m);
      double analog = 0.0, sum_x = 0.0;
      for (std::int64_t r = r0; r < r1; ++r) {
        analog += x[static_cast<std::size_t>(r)] *
                  ls.crw[static_cast<std::size_t>(r * cols + c)];
        sum_x += x[static_cast<std::size_t>(r)];
      }
      const double z = analog + ls.offsets[gi] * sum_x;  // Eq. (1)/(7)
      // Complement post-processing (ISAAC module, paper Sec. III-C).
      y_hw += pl.assign.complemented[gi] ? maxw * sum_x - z : z;
      sum_x_total += sum_x;
    }
    // The ISAAC weight shift: subtract zero * sum(x), then dequantize.
    const double y_hw_eff =
        pl.lq.scale * (y_hw - static_cast<double>(pl.lq.zero) * sum_x_total);
    EXPECT_NEAR(y_eff, y_hw_eff, 1e-3 * std::max(1.0, std::fabs(y_eff)))
        << "column " << c;
  }
}

TEST(Equivalence, PlainEffectiveWeightIsCrwPlusOffsetDequantized) {
  auto& f = fixture();
  DeployOptions o;
  o.scheme = Scheme::Plain;
  o.offsets.m = 8;
  o.cell = {rram::CellKind::SLC, 200.0};
  o.variation.sigma = 0.4;
  o.seed = 5;
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EffectiveWeightBackend backend(plan, f.net);
  backend.program_cycle(0);
  const PlanLayer& pl = plan.layers[0];
  const EffectiveWeightBackend::LayerState& ls = backend.layers()[0];
  const std::span<const float> w = ls.op->weights();
  ASSERT_EQ(w.size(), ls.crw.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w[i], pl.lq.dequant(static_cast<float>(ls.crw[i])), 1e-4f);
  }
}

TEST(Equivalence, ZeroVariationPlainMatchesQuantizedRoundTrip) {
  auto& f = fixture();
  DeployOptions o;
  o.scheme = Scheme::Plain;
  o.cell = {rram::CellKind::MLC2, 200.0};
  o.variation.sigma = 0.0;
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EffectiveWeightBackend backend(plan, f.net);
  backend.program_cycle(0);
  const PlanLayer& pl = plan.layers[0];
  const EffectiveWeightBackend::LayerState& ls = backend.layers()[0];
  const std::span<const float> w = ls.op->weights();
  ASSERT_EQ(w.size(), pl.lq.q.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w[i], pl.lq.dequant(static_cast<float>(pl.lq.q[i])), 1e-5f);
  }
}

TEST(Equivalence, ComplementIdentityOnDeviceLevelCrossbar) {
  // z = sum(w x) computed directly equals (2^n - 1) sum(x) - z' with z'
  // from the complemented weights — exactly, on ideal devices (the
  // identity the ISAAC post-processing module implements).
  rram::CrossbarConfig cfg;
  cfg.rows = 8;
  cfg.cols = 32;  // 8 weights x 4 MLC2 cells
  cfg.cell = {rram::CellKind::MLC2, 200.0};
  cfg.active_wordlines = 8;
  rram::WeightProgrammer prog(cfg.cell, 8, {0.0, 0.0});

  nn::Rng rng(11);
  std::vector<int> w(8);
  for (auto& v : w) v = static_cast<int>(rng.uniform_int(0, 255));
  std::vector<double> x(8);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);

  auto dot_via_crossbar = [&](const std::vector<int>& weights) {
    // Ideal cells (sigma 0) drawn by the production programmer.
    std::vector<double> cells(8 * 4);
    std::vector<double> crw(8);
    nn::Rng draw(12);
    prog.program_weights(weights, draw, cells, crw);
    const rram::Crossbar xb(cfg);
    std::vector<double> values(8 * 32, 0.0);
    for (int i = 0; i < 8; ++i) {
      for (int k = 0; k < 4; ++k) {
        // weight i occupies columns 4i..4i+3, all rows -> row i only here
        values[static_cast<std::size_t>(i * 32 + i * 4 + k)] =
            cells[static_cast<std::size_t>(i * 4 + k)];
      }
    }
    std::vector<double> y(32);
    xb.vmm_rows({values.data(), 32, 32}, x, 1, 0, 8, y);
    double z = 0.0;
    for (int i = 0; i < 8; ++i) {
      double radix = 1.0;
      for (int k = 0; k < 4; ++k) {
        z += radix * y[static_cast<std::size_t>(i * 4 + k)];
        radix *= 4.0;
      }
    }
    return z;
  };

  std::vector<int> wbar(8);
  double sum_x = 0.0;
  for (int i = 0; i < 8; ++i) {
    wbar[static_cast<std::size_t>(i)] = 255 - w[static_cast<std::size_t>(i)];
    sum_x += x[static_cast<std::size_t>(i)];
  }
  const double direct = dot_via_crossbar(w);
  const double via_complement = 255.0 * sum_x - dot_via_crossbar(wbar);
  EXPECT_NEAR(direct, via_complement, 1e-9);
}

TEST(Equivalence, MaxPoolDeviceAndFloatPathsShareOneKernel) {
  // The float MaxPool2D layer and the device-level executor both call
  // nn::maxpool2d_image, so their pooling semantics cannot drift. Assert
  // parity of the shared kernel (double, as the device path uses it)
  // with the layer's float forward on the same data.
  nn::Rng rng(41);
  const std::int64_t c = 3, h = 8, w = 8, window = 2;
  nn::Tensor x({1, c, h, w});
  for (std::int64_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  nn::MaxPool2D layer(window);
  const nn::Tensor y_layer = layer.forward(x, /*train=*/false);

  std::vector<double> img(static_cast<std::size_t>(c * h * w));
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = x.data()[i];
  std::vector<double> y_dev(
      static_cast<std::size_t>(c * (h / window) * (w / window)));
  nn::maxpool2d_image(img.data(), c, h, w, window, y_dev.data());

  ASSERT_EQ(static_cast<std::int64_t>(y_dev.size()), y_layer.size());
  for (std::int64_t i = 0; i < y_layer.size(); ++i) {
    EXPECT_DOUBLE_EQ(y_dev[static_cast<std::size_t>(i)],
                     static_cast<double>(y_layer[i]));
  }
}

TEST(Equivalence, MaxPoolArgmaxBackwardUnchanged) {
  // The refactor onto the shared kernel must keep batch-global argmax
  // indices for backward: a gradient routed through a 2-sample batch
  // lands on each sample's own maximum.
  nn::Tensor x({2, 1, 2, 2});
  const float vals[] = {1.0f, 5.0f, 2.0f, 3.0f,   // sample 0: max at idx 1
                        9.0f, 0.0f, 4.0f, 7.0f};  // sample 1: max at idx 4
  for (std::int64_t i = 0; i < x.size(); ++i) x[i] = vals[i];
  nn::MaxPool2D layer(2);
  const nn::Tensor y = layer.forward(x, /*train=*/true);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 9.0f);
  nn::Tensor g({2, 1, 1, 1});
  g[0] = 1.0f;
  g[1] = 2.0f;
  const nn::Tensor gx = layer.backward(g);
  EXPECT_FLOAT_EQ(gx[1], 1.0f);  // sample 0's max
  EXPECT_FLOAT_EQ(gx[4], 2.0f);  // sample 1's max (batch-global index)
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[5], 0.0f);
}

TEST(Equivalence, OffsetLinearityEq1) {
  // Eq. (1): sum x_i (v_i + b) == sum x_i v_i + b sum x_i, for the
  // composed effective computation at double precision.
  nn::Rng rng(12);
  const int n = 16;
  std::vector<double> v(n), x(n);
  for (auto& e : v) e = rng.uniform(0.0, 255.0);
  for (auto& e : x) e = rng.uniform(0.0, 1.0);
  const double b = 37.0;
  double lhs = 0.0, dot = 0.0, sum_x = 0.0;
  for (int i = 0; i < n; ++i) {
    lhs += x[static_cast<std::size_t>(i)] * (v[static_cast<std::size_t>(i)] + b);
    dot += x[static_cast<std::size_t>(i)] * v[static_cast<std::size_t>(i)];
    sum_x += x[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(lhs, dot + b * sum_x, 1e-9);
}
