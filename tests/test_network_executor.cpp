// Whole-network device-level inference (sim::DeviceSimBackend executing
// a compiled core::DeploymentPlan).
#include <gtest/gtest.h>

#include "core/plan.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "quant/act_quant.h"
#include "sim/device_backend.h"

using namespace rdo;
using namespace rdo::sim;

namespace {

struct Fixture {
  data::SyntheticDataset ds;
  nn::Sequential net;
  float ideal = 0.0f;

  Fixture() {
    data::SyntheticSpec spec = data::mnist_like();
    spec.height = spec.width = 10;
    spec.classes = 5;
    spec.train_per_class = 30;
    spec.test_per_class = 10;
    spec.seed = 44;
    ds = data::make_synthetic(spec);
    nn::Rng rng(8);
    net.emplace<nn::Flatten>();
    net.emplace<nn::Dense>(100, 24, rng);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Dense>(24, 5, rng);
    nn::SGD opt(net.params(), 0.1f);
    for (int e = 0; e < 10; ++e) {
      nn::train_epoch(net, opt, ds.train(), 16, rng);
    }
    ideal = nn::evaluate(net, ds.test(), 32).accuracy;
  }

  core::DeployOptions options(double sigma, core::Scheme scheme) const {
    core::DeployOptions o;
    o.scheme = scheme;
    o.offsets.m = 8;
    o.cell = {rram::CellKind::MLC2, 200.0};
    o.variation.sigma = sigma;
    o.lut_k_sets = 8;
    o.lut_j_cycles = 8;
    // Mean-measurement warm start only: the device-level recovery tests
    // mirror the paper's posteriori offset initialization.
    o.pwt.epochs = 0;
    o.seed = 17;
    return o;
  }

  DeviceSimOptions geometry() const {
    DeviceSimOptions d;
    d.xbar_rows = 32;
    d.xbar_cols = 32;
    d.active_wordlines = 8;
    return d;
  }

  /// The first `n` test samples (device-level CNN evaluation is slow).
  struct TestSlice {
    nn::Tensor images;
    std::vector<int> labels;
    [[nodiscard]] nn::DataView view() const { return {&images, &labels}; }
  };
  [[nodiscard]] TestSlice test_head(std::int64_t n) const {
    nn::Batch b = nn::take_batch(ds.test(), 0, n);
    return {std::move(b.images), std::move(b.labels)};
  }

  /// A backend bundled with the plan it executes (the backend holds a
  /// reference into the plan, so the two share a lifetime).
  struct Deployed {
    std::unique_ptr<core::DeploymentPlan> plan;
    std::unique_ptr<DeviceSimBackend> backend;
    DeviceSimBackend* operator->() const { return backend.get(); }
  };

  /// Compile + build + program one cycle in one step.
  Deployed deployed(const nn::Layer& network, double sigma,
                    core::Scheme scheme) const {
    Deployed d;
    d.plan = std::make_unique<core::DeploymentPlan>(
        core::compile_plan(network, options(sigma, scheme), ds.train()));
    d.backend =
        std::make_unique<DeviceSimBackend>(*d.plan, network, geometry());
    d.backend->program_cycle(0);
    return d;
  }
};

Fixture& fx() {
  static Fixture f;
  return f;
}

}  // namespace

TEST(NetworkExecutor, IdealDevicesMatchFloatAccuracy) {
  auto& f = fx();
  const core::DeploymentPlan plan =
      core::compile_plan(f.net, f.options(0.0, core::Scheme::Plain),
                         f.ds.train());
  DeviceSimBackend exec(plan, f.net, f.geometry());
  exec.program_cycle(0);
  EXPECT_NEAR(exec.evaluate(f.ds.test()), f.ideal, 0.06f);
}

TEST(NetworkExecutor, FlatTestSetMatchesImageTestSet) {
  // An MLP classifies [N, features] samples exactly like the [N, 1, H, W]
  // images they flatten; a test set of any other rank is refused.
  auto& f = fx();
  const Fixture::Deployed exec = f.deployed(f.net, 0.5, core::Scheme::VAWOStar);
  const nn::Tensor& images = f.ds.test_images;
  const nn::Tensor flat = images.reshaped({images.dim(0), 100});
  const nn::DataView flat_view{&flat, &f.ds.test_labels};
  EXPECT_EQ(exec->evaluate(flat_view), exec->evaluate(f.ds.test()));

  const nn::Tensor rank3 = images.reshaped({images.dim(0), 10, 10});
  const nn::DataView rank3_view{&rank3, &f.ds.test_labels};
  EXPECT_THROW(exec->evaluate(rank3_view), std::invalid_argument);
}

TEST(NetworkExecutor, EvaluateRejectsAnEmptyTestSet) {
  // An empty set (a zero-sample reshape of an empty tensor) has no
  // per-sample size and no accuracy; it must be refused, not divided by.
  auto& f = fx();
  const Fixture::Deployed exec = f.deployed(f.net, 0.5, core::Scheme::VAWOStar);
  const std::vector<int> no_labels;
  const nn::Tensor flat = nn::Tensor().reshaped({0, 100});
  EXPECT_THROW(exec->evaluate({&flat, &no_labels}), std::invalid_argument);
  const nn::Tensor images = nn::Tensor().reshaped({0, 1, 10, 10});
  EXPECT_THROW(exec->evaluate({&images, &no_labels}), std::invalid_argument);
}

TEST(NetworkExecutor, EvaluateRejectsFewerLabelsThanImages) {
  auto& f = fx();
  const Fixture::Deployed exec = f.deployed(f.net, 0.5, core::Scheme::VAWOStar);
  const std::vector<int> short_labels(f.ds.test_labels.begin(),
                                      f.ds.test_labels.end() - 1);
  EXPECT_THROW(exec->evaluate({&f.ds.test_images, &short_labels}),
               std::invalid_argument);
}

TEST(NetworkExecutor, EvaluateBatchBoundsTheChunkNotTheAccuracy) {
  // Samples go through the stages `batch` at a time; a sample's logits
  // do not depend on the batch it rides in, so neither does the
  // accuracy. A batch below 1 is refused.
  auto& f = fx();
  const Fixture::Deployed exec = f.deployed(f.net, 0.5, core::Scheme::VAWOStar);
  const float whole = exec->evaluate(f.ds.test(), 64);
  EXPECT_EQ(exec->evaluate(f.ds.test(), 1), whole);
  EXPECT_EQ(exec->evaluate(f.ds.test(), 7), whole);
  EXPECT_EQ(exec->evaluate(f.ds.test(), 1000), whole);
  EXPECT_THROW(exec->evaluate(f.ds.test(), 0), std::invalid_argument);
}

TEST(NetworkExecutor, RejectsUnsupportedLayers) {
  nn::Rng rng(1);
  nn::Sequential bn_net;
  bn_net.emplace<nn::Conv2D>(1, 2, 3, 1, 1, rng);
  bn_net.emplace<rdo::nn::BatchNorm2D>(2);
  auto& f = fx();
  // The conv layer compiles (it is crossbar-mappable), but BatchNorm has
  // no device-level stage, so the backend must refuse the network.
  const core::DeploymentPlan plan = core::compile_plan(
      bn_net, f.options(0.0, core::Scheme::Plain), f.ds.train());
  EXPECT_THROW(DeviceSimBackend(plan, bn_net, f.geometry()),
               std::invalid_argument);
}

namespace {

/// A small trained CNN shared by the device-level CNN tests.
nn::Sequential& trained_cnn() {
  static nn::Sequential* cnn = [] {
    auto* net = new nn::Sequential();
    auto& f = fx();
    nn::Rng rng(9);
    net->emplace<nn::Conv2D>(1, 6, 3, 1, 1, rng);
    net->emplace<nn::ReLU>();
    net->emplace<rdo::nn::MaxPool2D>(2);
    net->emplace<nn::Flatten>();
    net->emplace<nn::Dense>(6 * 5 * 5, 5, rng);
    nn::SGD opt(net->params(), 0.05f);
    for (int e = 0; e < 20; ++e) {
      nn::train_epoch(*net, opt, f.ds.train(), 16, rng);
    }
    return net;
  }();
  return *cnn;
}

}  // namespace

TEST(NetworkExecutor, CnnDeviceLogitsMatchFloatOnIdealDevices) {
  // A LeNet-class CNN executed entirely on simulated crossbars: conv
  // layers are lowered to one VMM per output position. With ideal
  // devices the only gap is 8-bit weight quantization, so logits track
  // the float network closely.
  auto& f = fx();
  nn::Sequential& cnn = trained_cnn();
  const Fixture::Deployed exec = f.deployed(cnn, 0.0, core::Scheme::Plain);
  nn::Tensor batch = nn::gather_batch(f.ds.test_images, std::vector<std::int64_t>{0});
  nn::Tensor logits = cnn.forward(batch, false);
  std::vector<double> x(100);
  for (int j = 0; j < 100; ++j) {
    x[static_cast<std::size_t>(j)] = f.ds.test_images[j];
  }
  const auto dev = exec->forward(x, 1, 10, 10);
  for (int k = 0; k < 5; ++k) {
    EXPECT_NEAR(dev[static_cast<std::size_t>(k)], logits[k],
                0.1 * std::max(1.0f, std::abs(logits[k])));
  }
}

TEST(NetworkExecutor, CnnAccuracyMatchesOnIdealDevices) {
  auto& f = fx();
  nn::Sequential& cnn = trained_cnn();
  const float ideal = nn::evaluate(cnn, f.ds.test(), 32).accuracy;
  const Fixture::Deployed exec = f.deployed(cnn, 0.0, core::Scheme::Plain);
  const float device = exec->evaluate(f.ds.test());
  EXPECT_NEAR(device, ideal, 0.08f);
}

TEST(NetworkExecutor, CnnRecoveryUnderVariation) {
  auto& f = fx();
  nn::Sequential& cnn = trained_cnn();
  const Fixture::TestSlice head = f.test_head(25);
  const Fixture::Deployed plain = f.deployed(cnn, 0.5, core::Scheme::Plain);
  const Fixture::Deployed full =
      f.deployed(cnn, 0.5, core::Scheme::VAWOStarPWT);
  full->tune(f.ds.train());
  EXPECT_GE(full->evaluate(head.view()), plain->evaluate(head.view()));
}

TEST(NetworkExecutor, VariationDegradesPlainDeployment) {
  auto& f = fx();
  const Fixture::Deployed exec = f.deployed(f.net, 0.5, core::Scheme::Plain);
  EXPECT_LT(exec->evaluate(f.ds.test()), f.ideal - 0.2f);
}

TEST(NetworkExecutor, VawoStarPlusMeanInitRecoversOnDevices) {
  // The paper's pipeline, executed entirely at device level: VAWO* CTWs,
  // then the posteriori offset warm start on the measured conductances.
  auto& f = fx();
  const Fixture::Deployed plain =
      f.deployed(f.net, 0.5, core::Scheme::Plain);
  const float a_plain = plain->evaluate(f.ds.test());

  const Fixture::Deployed full =
      f.deployed(f.net, 0.5, core::Scheme::VAWOStarPWT);
  full->tune(f.ds.train());
  const float a_full = full->evaluate(f.ds.test());
  EXPECT_GT(a_full, a_plain + 0.15f);
  EXPECT_GT(a_full, f.ideal - 0.25f);
}

TEST(NetworkExecutor, MeanInitImprovesOverVawoAlone) {
  // Averaged over a few CCV cycles: a single cycle's accuracies are one
  // borderline sample apart, so the comparison uses the mean.
  auto& f = fx();
  const Fixture::Deployed vawo =
      f.deployed(f.net, 0.5, core::Scheme::VAWOStar);
  const Fixture::Deployed full =
      f.deployed(f.net, 0.5, core::Scheme::VAWOStarPWT);
  float before = 0.0f, after = 0.0f;
  const int kCycles = 3;
  for (int c = 0; c < kCycles; ++c) {
    vawo->program_cycle(static_cast<std::uint64_t>(c));
    before += vawo->evaluate(f.ds.test());
    full->program_cycle(static_cast<std::uint64_t>(c));
    full->tune(f.ds.train());
    after += full->evaluate(f.ds.test());
  }
  EXPECT_GE(after / kCycles, before / kCycles - 0.02f);
}

TEST(NetworkExecutor, CrossbarCountAccounting) {
  auto& f = fx();
  const Fixture::Deployed exec = f.deployed(f.net, 0.0, core::Scheme::Plain);
  // Layer 1: 100x24 weights, 4 cells each on 32x32 arrays: 8 weights/row
  // -> 3 col tiles x 4 row tiles = 12. Layer 2: 24x5 -> 1.
  EXPECT_EQ(exec->crossbar_count(), 13);
}

TEST(NetworkExecutor, NetworkWeightsUntouched) {
  auto& f = fx();
  const float before = nn::evaluate(f.net, f.ds.test(), 32).accuracy;
  {
    const Fixture::Deployed exec =
        f.deployed(f.net, 0.7, core::Scheme::VAWOStarPWT);
    exec->tune(f.ds.train());
    (void)exec->evaluate(f.ds.test());
  }
  EXPECT_FLOAT_EQ(nn::evaluate(f.net, f.ds.test(), 32).accuracy, before);
}
