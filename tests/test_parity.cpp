// Cross-backend parity: sim::DeviceSimBackend is a
// core::EffectiveWeightBackend that evaluates on crossbars, so the two
// execute the same compiled core::DeploymentPlan from one programmed
// state. Their deterministic DeployStats counters are bit-identical for
// every scheme and cell kind, their reported accuracies agree up to
// ADC/floating-point summation effects, and with an ideal ADC the device
// logits replay the effective twin's to float precision. These tests
// carry the `parity` ctest label and run in CI under several RDO_THREADS
// settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/plan.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "sim/device_backend.h"
#include "sim_oracles.h"

using namespace rdo;
using namespace rdo::core;

namespace {

/// One tiny trained LeNet-class CNN on an 8x8 synthetic task, shared by
/// every parity case (device-level evaluation is slow, so the fixture is
/// deliberately small).
struct Fixture {
  data::SyntheticDataset ds;
  nn::Sequential net;

  Fixture() {
    data::SyntheticSpec spec = data::mnist_like();
    spec.height = spec.width = 8;
    spec.classes = 4;
    spec.train_per_class = 20;
    spec.test_per_class = 8;
    spec.seed = 73;
    ds = data::make_synthetic(spec);
    nn::Rng rng(12);
    net.emplace<nn::Conv2D>(1, 4, 3, 1, 1, rng);
    net.emplace<nn::ReLU>();
    net.emplace<nn::MaxPool2D>(2);
    net.emplace<nn::Flatten>();
    net.emplace<nn::Dense>(4 * 4 * 4, 4, rng);
    nn::SGD opt(net.params(), 0.05f);
    for (int e = 0; e < 6; ++e) {
      nn::train_epoch(net, opt, ds.train(), 16, rng);
    }
  }

  DeployOptions options(Scheme s, rram::CellKind cell) const {
    DeployOptions o;
    o.scheme = s;
    o.offsets.m = 8;
    o.cell = {cell, 200.0};
    o.variation.sigma = 0.4;
    o.lut_k_sets = 4;
    o.lut_j_cycles = 4;
    o.grad_samples = 48;
    o.pwt.epochs = 1;
    o.pwt.max_samples = 48;
    o.seed = 29;
    return o;
  }

  /// Device geometry matching the m = 8 offset groups (the group size
  /// must be a multiple of the activated wordlines, paper Sec. III-A).
  sim::DeviceSimOptions geometry() const {
    sim::DeviceSimOptions d;
    d.xbar_rows = 32;
    d.xbar_cols = 32;
    d.active_wordlines = 8;
    return d;
  }

  /// Snapshot of every parameter value of the caller's network, for the
  /// byte-identity check.
  std::vector<float> param_bytes() {
    std::vector<float> out;
    for (nn::Param* p : net.params()) {
      const float* d = p->value.data();
      out.insert(out.end(), d, d + p->value.size());
    }
    return out;
  }
};

Fixture& fx() {
  static Fixture f;
  return f;
}

/// A small MLP trained on the same task.
nn::Sequential& trained_mlp() {
  static nn::Sequential* mlp = [] {
    auto* net = new nn::Sequential();
    auto& f = fx();
    nn::Rng rng(31);
    net->emplace<nn::Flatten>();
    net->emplace<nn::Dense>(64, 16, rng);
    net->emplace<nn::ReLU>();
    net->emplace<nn::Dense>(16, 4, rng);
    nn::SGD opt(net->params(), 0.1f);
    for (int e = 0; e < 8; ++e) {
      nn::train_epoch(*net, opt, f.ds.train(), 16, rng);
    }
    return net;
  }();
  return *mlp;
}

/// Full program/tune/evaluate pipeline over `cycles` programming cycles
/// on an already-constructed backend; returns its stats.
const DeployStats& run_pipeline(EffectiveWeightBackend& backend,
                                const nn::DataView& train,
                                const nn::DataView& test, int cycles) {
  for (int c = 0; c < cycles; ++c) {
    backend.program_cycle(static_cast<std::uint64_t>(c));
    backend.tune(train);
    (void)backend.evaluate(test);
  }
  return backend.stats();
}

}  // namespace

TEST(Parity, DeterministicCountersMatchAcrossBackendsAllSchemes) {
  auto& f = fx();
  const Scheme kSchemes[] = {Scheme::Plain, Scheme::VAWO, Scheme::VAWOStar,
                             Scheme::PWT, Scheme::VAWOStarPWT};
  for (rram::CellKind cell : {rram::CellKind::SLC, rram::CellKind::MLC2}) {
    for (Scheme s : kSchemes) {
      SCOPED_TRACE(std::string(to_string(s)) + "/" +
                   (cell == rram::CellKind::SLC ? "SLC" : "MLC2"));
      const DeploymentPlan plan =
          compile_plan(f.net, f.options(s, cell), f.ds.train());
      EffectiveWeightBackend ew(plan, f.net);
      sim::DeviceSimBackend dev(plan, f.net, f.geometry());
      const DeployStats& a =
          run_pipeline(ew, f.ds.train(), f.ds.test(), /*cycles=*/2);
      const DeployStats& b =
          run_pipeline(dev, f.ds.train(), f.ds.test(), /*cycles=*/2);

      // Every deterministic pipeline counter must be bit-identical: both
      // backends draw devices and run PWT from the same seeded streams.
      EXPECT_EQ(a.cycles, b.cycles);
      EXPECT_EQ(a.weights_programmed, b.weights_programmed);
      EXPECT_EQ(a.device_pulses, b.device_pulses);
      EXPECT_EQ(a.pwt_epochs, b.pwt_epochs);
      EXPECT_EQ(a.pwt_batches, b.pwt_batches);
      EXPECT_EQ(a.pwt_offset_updates, b.pwt_offset_updates);
      ASSERT_EQ(a.pwt_epoch_loss.size(), b.pwt_epoch_loss.size());
      for (std::size_t i = 0; i < a.pwt_epoch_loss.size(); ++i) {
        EXPECT_FLOAT_EQ(a.pwt_epoch_loss[i], b.pwt_epoch_loss[i])
            << "pwt epoch " << i;
      }

      // Accuracies agree up to the ADC model and floating-point
      // summation order (the device path accumulates per-crossbar).
      ASSERT_EQ(a.eval_accuracy.size(), b.eval_accuracy.size());
      for (std::size_t i = 0; i < a.eval_accuracy.size(); ++i) {
        EXPECT_NEAR(a.eval_accuracy[i], b.eval_accuracy[i], 0.15f)
            << "cycle " << i;
      }
    }
  }
}

TEST(Parity, SchemeCountersActuallyDiffer) {
  // Guard against the parity test passing vacuously: the counters it
  // compares must respond to the scheme (PWT adds tuning work).
  auto& f = fx();
  const DeploymentPlan plain = compile_plan(
      f.net, f.options(Scheme::Plain, rram::CellKind::SLC), f.ds.train());
  const DeploymentPlan full = compile_plan(
      f.net, f.options(Scheme::VAWOStarPWT, rram::CellKind::SLC),
      f.ds.train());
  EffectiveWeightBackend a(plain, f.net);
  EffectiveWeightBackend b(full, f.net);
  run_pipeline(a, f.ds.train(), f.ds.test(), 1);
  run_pipeline(b, f.ds.train(), f.ds.test(), 1);
  EXPECT_EQ(a.stats().pwt_epochs, 0);
  EXPECT_GT(b.stats().pwt_epochs, 0);
  EXPECT_GT(b.stats().pwt_batches, 0);
  EXPECT_GT(a.stats().device_pulses, 0);
}

TEST(Parity, CallerNetworkBytesUntouchedByBothBackends) {
  // Backends deploy onto private twins; the caller's trained parameters
  // must be byte-identical after a full pipeline on each backend.
  auto& f = fx();
  const std::vector<float> before = f.param_bytes();
  {
    const DeploymentPlan plan = compile_plan(
        f.net, f.options(Scheme::VAWOStarPWT, rram::CellKind::MLC2),
        f.ds.train());
    EffectiveWeightBackend ew(plan, f.net);
    run_pipeline(ew, f.ds.train(), f.ds.test(), 1);
    sim::DeviceSimBackend dev(plan, f.net, f.geometry());
    run_pipeline(dev, f.ds.train(), f.ds.test(), 1);
  }
  const std::vector<float> after = f.param_bytes();
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(0, std::memcmp(before.data(), after.data(),
                           before.size() * sizeof(float)));
}

TEST(Parity, SharedPlanSupportsManyIndependentBackends) {
  // Compile once, execute many: two effective-weight backends over the
  // same plan and the same cycle salt land identical accuracies, and an
  // interleaved third backend does not perturb them.
  auto& f = fx();
  const DeploymentPlan plan = compile_plan(
      f.net, f.options(Scheme::VAWOStar, rram::CellKind::SLC), f.ds.train());
  EffectiveWeightBackend b1(plan, f.net);
  EffectiveWeightBackend b2(plan, f.net);
  EffectiveWeightBackend noise(plan, f.net);
  b1.program_cycle(3);
  noise.program_cycle(5);  // different salt, interleaved
  b2.program_cycle(3);
  const float a1 = b1.evaluate(f.ds.test());
  (void)noise.evaluate(f.ds.test());
  const float a2 = b2.evaluate(f.ds.test());
  EXPECT_FLOAT_EQ(a1, a2);
}

TEST(Parity, ThrowingProgramCycleLeavesBackendDestructibleAndRetryable) {
  // Teardown regression: a plan corrupted to hold an out-of-range CTW
  // makes WeightProgrammer::program_weights throw mid-pipeline. The
  // backend must survive the throw (destruction and retry both safe), and
  // the caller's network must stay untouched.
  auto& f = fx();
  const std::vector<float> before = f.param_bytes();
  const DeployOptions o = f.options(Scheme::VAWOStarPWT, rram::CellKind::SLC);
  const DeploymentPlan clean = compile_plan(f.net, o, f.ds.train());

  DeploymentPlan corrupt = clean;  // plans are pure data: copyable
  ASSERT_FALSE(corrupt.layers.empty());
  ASSERT_FALSE(corrupt.layers[0].assign.ctw.empty());
  corrupt.layers[0].assign.ctw[0] = 1 << 20;  // far outside the weight range

  {
    EffectiveWeightBackend backend(corrupt, f.net);
    EXPECT_THROW(backend.program_cycle(0), std::invalid_argument);
    // The pipeline never reached deployment, so downstream stages refuse
    // to run instead of computing on half-programmed state.
    EXPECT_THROW(backend.tune(f.ds.train()), std::logic_error);
    EXPECT_THROW(backend.evaluate(f.ds.test()), std::logic_error);
    EXPECT_THROW(backend.program_cycle(0), std::invalid_argument);
  }  // first destruction: the backend, then its twin — must not throw
  // The device backend's executors validate the CTW range at
  // construction, so the corrupt plan is rejected before any cycle runs.
  EXPECT_THROW(sim::DeviceSimBackend(corrupt, f.net, f.geometry()),
               std::invalid_argument);

  // A fresh backend over the clean plan is unaffected by the failed runs.
  EffectiveWeightBackend good(clean, f.net);
  good.program_cycle(0);
  EXPECT_GT(good.evaluate(f.ds.test()), 0.0f);

  const std::vector<float> after = f.param_bytes();
  EXPECT_EQ(0, std::memcmp(before.data(), after.data(),
                           before.size() * sizeof(float)));
}

TEST(Parity, DeviceLogitsReplayAnIndependentEffectiveTwin) {
  // Whole-network replay oracle: with an ideal ADC, the device backend's
  // logits equal those of an independently built effective-weight twin
  // at the same plan and cycle salt, so the crossbars read exactly the
  // twin's cells and tuned offsets. VAWO*+PWT pins the tuned offsets and
  // VAWO* the compiled ones. The conv net covers the conv
  // stage (tap runs of the padded planes, all output positions of an
  // image in one batched VMM), ReLU and max-pooling.
  auto& f = fx();
  struct Net {
    const char* name;
    nn::Sequential* net;
    int channels, height, width;  ///< 0: flat samples
  };
  const Net nets[] = {{"mlp", &trained_mlp(), 0, 0, 0},
                      {"conv", &f.net, 1, 8, 8}};
  const std::vector<std::int64_t> samples = {0, 1, 2, 3, 4, 5};
  const nn::Tensor batch = nn::gather_batch(f.ds.test_images, samples);
  const std::int64_t features = batch.size() / batch.dim(0);
  for (const Net& net : nets) {
    for (Scheme s : {Scheme::VAWOStarPWT, Scheme::VAWOStar}) {
      SCOPED_TRACE(std::string(net.name) + "/" + to_string(s));
      DeployOptions o = f.options(s, rram::CellKind::MLC2);
      o.variation.sigma = 0.5;
      o.pwt.epochs = 2;
      const DeploymentPlan plan = compile_plan(*net.net, o, f.ds.train());

      EffectiveWeightBackend twin(plan, *net.net);
      sim::DeviceSimBackend dev(plan, *net.net, f.geometry());
      for (EffectiveWeightBackend* b :
           std::initializer_list<EffectiveWeightBackend*>{&twin, &dev}) {
        b->program_cycle(5);
        b->tune(f.ds.train());
      }
      if (scheme_uses_pwt(s)) {
        ASSERT_NE(twin.layers()[0].offsets, plan.layers[0].assign.offsets)
            << "PWT left the offsets untouched; nothing to replay";
      }

      const nn::Tensor want = twin.network().forward(batch, false);
      const std::int64_t classes = want.dim(1);
      for (std::int64_t n = 0; n < batch.dim(0); ++n) {
        std::vector<double> x(static_cast<std::size_t>(features));
        for (std::int64_t j = 0; j < features; ++j) {
          x[static_cast<std::size_t>(j)] = batch[n * features + j];
        }
        const std::vector<double> got =
            dev.forward(x, net.channels, net.height, net.width);
        ASSERT_EQ(static_cast<std::int64_t>(got.size()), classes);
        for (std::int64_t k = 0; k < classes; ++k) {
          const double w = want[n * classes + k];
          // The twin holds float effective weights and sums in float; the
          // crossbars read double cells and sum in double.
          EXPECT_NEAR(got[static_cast<std::size_t>(k)], w,
                      1e-5 * std::max(1.0, std::fabs(w)))
              << "sample " << n << " class " << k;
        }
      }
    }
  }
}

TEST(Parity, DeviceConvStageMatchesIm2colOracleByteForByte) {
  // The device conv stage alone, byte for byte: the network is one Conv2D
  // (the Flatten only gives VAWO*'s gradient pass flat logits), so the
  // device output is the conv stage's [out_ch, oh * ow]. The oracle
  // lowers each image with the per-element im2col, sends every output
  // position through an independently built executor holding the same
  // cells and tuned offsets one sample at a time, and adds the bias in
  // double. Strides 1 and 2, pads 0 to 2, on non-square 7 x 9 images
  // with zeros and -0.0; fan_in 2 x 3 x 3 = 18 and 2 x 5 x 5 = 50 leave a
  // ragged offset group, and 50 spans two 32-row tiles.
  data::SyntheticSpec spec = data::mnist_like();
  spec.channels = 2;
  spec.height = spec.width = 6;
  spec.classes = 4;
  spec.train_per_class = 8;
  spec.test_per_class = 1;
  spec.seed = 91;
  const data::SyntheticDataset ds = data::make_synthetic(spec);
  auto& f = fx();
  constexpr std::int64_t kCh = 2, kOut = 5, kH = 7, kW = 9;
  int geometries = 0;
  for (const std::int64_t k : {3, 5}) {
    for (const std::int64_t stride : {1, 2}) {
      for (std::int64_t pad = 0; pad <= 2; ++pad) {
        SCOPED_TRACE("k=" + std::to_string(k) + " stride=" +
                     std::to_string(stride) + " pad=" + std::to_string(pad));
        nn::Rng rng(static_cast<std::uint64_t>(k * 9 + stride * 3 + pad));
        nn::Sequential net;
        auto* conv = net.emplace<nn::Conv2D>(kCh, kOut, k, stride, pad, rng);
        for (std::int64_t c = 0; c < kOut; ++c) {
          conv->bias_param().value[c] =
              static_cast<float>(rng.uniform(-0.5, 0.5));
        }
        net.emplace<nn::Flatten>();
        const DeploymentPlan plan = compile_plan(
            net, f.options(Scheme::VAWOStar, rram::CellKind::MLC2),
            ds.train());
        sim::DeviceSimBackend dev(plan, net, f.geometry());
        dev.program_cycle(7);

        const PlanLayer& pl = plan.layers[0];
        sim::ExecutorConfig cfg;
        cfg.xbar.rows = f.geometry().xbar_rows;
        cfg.xbar.cols = f.geometry().xbar_cols;
        cfg.xbar.cell = plan.opt.cell;
        cfg.xbar.active_wordlines = f.geometry().active_wordlines;
        cfg.offsets = plan.opt.offsets;
        const sim::CrossbarLayerExecutor exec(pl.lq, pl.assign, cfg);
        const auto& state = dev.layers()[0];
        const nn::Tensor& bias =
            nn::layers_of<nn::Conv2D>(dev.network())[0]->bias_param().value;

        for (int image = 0; image < 2; ++image) {
          std::vector<float> img(static_cast<std::size_t>(kCh * kH * kW));
          for (std::size_t i = 0; i < img.size(); ++i) {
            const float v = static_cast<float>(rng.uniform(-1, 1));
            img[i] = i % 5 == 0 ? 0.0f : i % 7 == 0 ? -0.0f : v;
          }
          const std::vector<double> got = dev.forward(
              std::vector<double>(img.begin(), img.end()), kCh, kH, kW);

          const std::vector<float> cols =
              oracle::im2col(img.data(), kCh, kH, kW, k, stride, pad);
          const std::int64_t fin = kCh * k * k;
          const std::int64_t positions =
              static_cast<std::int64_t>(cols.size()) / fin;
          std::vector<double> want(static_cast<std::size_t>(kOut * positions));
          std::vector<double> x(static_cast<std::size_t>(fin));
          for (std::int64_t p = 0; p < positions; ++p) {
            for (std::int64_t j = 0; j < fin; ++j) {
              x[static_cast<std::size_t>(j)] =
                  cols[static_cast<std::size_t>(j * positions + p)];
            }
            const std::vector<double> y =
                oracle::forward_one(exec, state.cells, state.offsets, x);
            for (std::int64_t c = 0; c < kOut; ++c) {
              want[static_cast<std::size_t>(c * positions + p)] =
                  y[static_cast<std::size_t>(c)] + bias[c];
            }
          }
          ASSERT_EQ(got.size(), want.size());
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                want.size() * sizeof(double)),
                    0)
              << "image " << image;
        }
        ++geometries;
      }
    }
  }
  EXPECT_EQ(geometries, 12);
}

TEST(DeviceSim, ConvStageRejectsImagesItsLayerCannotRead) {
  // A 3x3 stride-2 kernel without padding does not fit a 2x2 or a 3x2
  // image (conv_out_dim alone would report one output position), and a
  // two-channel image does not match a one-channel layer's fan-in. The
  // conv stage rejects each instead of reaching past its buffers.
  auto& f = fx();
  nn::Rng rng(17);
  nn::Sequential net;
  net.emplace<nn::Conv2D>(1, 4, 3, 2, 0, rng);
  net.emplace<nn::Flatten>();
  const DeploymentPlan plan = compile_plan(
      net, f.options(Scheme::Plain, rram::CellKind::MLC2), f.ds.train());
  sim::DeviceSimBackend dev(plan, net, f.geometry());
  dev.program_cycle(0);
  EXPECT_THROW((void)dev.forward(std::vector<double>(4, 0.5), 1, 2, 2),
               ContractViolation);
  EXPECT_THROW((void)dev.forward(std::vector<double>(6, 0.5), 1, 3, 2),
               ContractViolation);
  EXPECT_THROW(
      (void)dev.forward(std::vector<double>(2 * 8 * 8, 0.5), 2, 8, 8),
      ContractViolation);
  EXPECT_EQ(dev.forward(std::vector<double>(3 * 3, 0.5), 1, 3, 3).size(), 4u);
}
