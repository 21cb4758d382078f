// DVA (variation-aware training) and PM (unary coding) baselines.
#include <gtest/gtest.h>

#include "baselines/dva.h"
#include "baselines/pm.h"
#include "baselines/write_verify.h"
#include "core/deploy.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"

using namespace rdo;
using namespace rdo::baselines;

namespace {

struct Fixture {
  data::SyntheticDataset ds;

  Fixture() {
    data::SyntheticSpec spec = data::mnist_like();
    spec.height = spec.width = 10;
    spec.classes = 5;
    spec.train_per_class = 30;
    spec.test_per_class = 12;
    spec.seed = 21;
    ds = data::make_synthetic(spec);
  }

  nn::Sequential make_net(std::uint64_t seed) const {
    nn::Rng rng(seed);
    nn::Sequential net;
    net.emplace<nn::Flatten>();
    net.emplace<nn::Dense>(100, 24, rng);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Dense>(24, 5, rng);
    return net;
  }

  void pretrain(nn::Sequential& net, std::uint64_t seed) const {
    nn::Rng rng(seed);
    nn::SGD opt(net.params(), 0.1f);
    for (int e = 0; e < 8; ++e) {
      nn::train_epoch(net, opt, ds.train(), 16, rng);
    }
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

}  // namespace

namespace {

/// Mean training loss under `draws` independent multiplicative weight
/// perturbations (the quantity DVA's objective minimizes).
float noisy_loss(const nn::Sequential& net, const nn::DataView& data,
                 double sigma, std::uint64_t seed, int draws) {
  rram::VariationModel var{sigma, 0.0};
  double total = 0.0;
  for (int d = 0; d < draws; ++d) {
    nn::Rng rng = nn::Rng(seed).split(static_cast<std::uint64_t>(d));
    const std::unique_ptr<nn::Layer> twin = net.clone();
    for (nn::MatrixOp* op : nn::matrix_ops(*twin)) {
      for (float& w : op->weights()) {
        w *= static_cast<float>(var.sample_factor(rng));
      }
    }
    total += nn::evaluate(*twin, data, 64).loss;
  }
  return static_cast<float>(total / draws);
}

}  // namespace

TEST(Dva, TrainingLearnsDespiteInjectedNoise) {
  auto& f = fixture();
  nn::Sequential net = f.make_net(1);
  DvaOptions opt;
  opt.epochs = 8;
  opt.variation.sigma = 0.3;
  const float noisy_acc = dva_train(net, f.ds.train(), opt);
  EXPECT_GT(noisy_acc, 0.4f);  // learning through the noise
  // Clean evaluation is better still.
  EXPECT_GT(nn::evaluate(net, f.ds.train(), 64).accuracy, noisy_acc - 0.05f);
}

TEST(Dva, ReducesExpectedLossUnderWeightNoise) {
  // The mechanism claim: DVA fine-tuning flattens the minimum, lowering
  // the expected loss under multiplicative weight noise.
  auto& f = fixture();
  nn::Sequential net = f.make_net(2);
  f.pretrain(net, 3);
  const float before = noisy_loss(net, f.ds.train(), 0.4, 99, 8);
  DvaOptions dopt;
  dopt.epochs = 6;
  dopt.lr = 0.02f;
  dopt.variation.sigma = 0.4;
  dva_train(net, f.ds.train(), dopt);
  const float after = noisy_loss(net, f.ds.train(), 0.4, 99, 8);
  EXPECT_LT(after, before);
}

TEST(Dva, CleanWeightsRestoredAfterEachBatch) {
  // After dva_train, weights are finite and the net evaluates sanely
  // (catches forgetting to restore the perturbation).
  auto& f = fixture();
  nn::Sequential net = f.make_net(4);
  f.pretrain(net, 5);
  const float before = nn::evaluate(net, f.ds.test(), 32).accuracy;
  DvaOptions opt;
  opt.epochs = 2;
  opt.variation.sigma = 0.2;
  opt.lr = 0.01f;
  dva_train(net, f.ds.train(), opt);
  const float after = nn::evaluate(net, f.ds.test(), 32).accuracy;
  EXPECT_GT(after, before - 0.15f);
}

TEST(Pm, ZeroVariationIsNearExact) {
  auto& f = fixture();
  nn::Sequential net = f.make_net(6);
  f.pretrain(net, 7);
  const float ideal = nn::evaluate(net, f.ds.test(), 32).accuracy;
  PmOptions opt;
  opt.cell = {rram::CellKind::MLC2, 200.0};
  opt.variation.sigma = 0.0;
  const float acc = run_pm(net, opt, f.ds.test(), 1);
  EXPECT_NEAR(acc, ideal, 0.04f);
}

TEST(Pm, RestoresWeights) {
  auto& f = fixture();
  nn::Sequential net = f.make_net(8);
  f.pretrain(net, 9);
  const float before = nn::evaluate(net, f.ds.test(), 32).accuracy;
  PmOptions opt;
  opt.variation.sigma = 0.8;
  run_pm(net, opt, f.ds.test(), 2);
  const float after = nn::evaluate(net, f.ds.test(), 32).accuracy;
  EXPECT_FLOAT_EQ(before, after);
}

TEST(Pm, UnaryCodingBeatsBinaryUnderVariation) {
  // The variance-averaging claim: PM's hybrid-unary MLC coding should
  // retain more accuracy than plain binary SLC coding at the same sigma.
  auto& f = fixture();
  nn::Sequential net = f.make_net(10);
  f.pretrain(net, 11);

  PmOptions popt;
  popt.variation.sigma = 0.6;
  popt.seed = 13;
  const float pm_acc = run_pm(net, popt, f.ds.test(), 3);

  core::DeployOptions o;
  o.scheme = core::Scheme::Plain;
  o.cell = {rram::CellKind::SLC, 200.0};
  o.variation.sigma = 0.6;
  o.lut_k_sets = 4;
  o.lut_j_cycles = 4;
  o.seed = 13;
  const float plain_acc =
      core::run_scheme(net, o, f.ds.train(), f.ds.test(), 3).mean_accuracy;
  EXPECT_GT(pm_acc, plain_acc);
}

TEST(Pm, CellsPerWeightAccounting) {
  PmOptions opt;
  EXPECT_EQ(pm_cells_per_weight(opt), 10);
  opt.unary_cells = 6;
  opt.binary_cells = 2;
  EXPECT_EQ(pm_cells_per_weight(opt), 8);
}

TEST(Pm, PriorityMappingHelpsOnlyWithDdv) {
  // With a DDV component, priority mapping should not hurt; with pure CCV
  // it is a no-op by construction (the paper's critique).
  auto& f = fixture();
  nn::Sequential net = f.make_net(12);
  f.pretrain(net, 13);

  PmOptions ddv_on;
  ddv_on.variation.sigma = 0.7;
  ddv_on.variation.ddv_fraction = 0.8;
  ddv_on.priority_mapping = true;
  ddv_on.seed = 17;
  PmOptions ddv_off = ddv_on;
  ddv_off.priority_mapping = false;
  const float with_pm = run_pm(net, ddv_on, f.ds.test(), 3);
  const float without_pm = run_pm(net, ddv_off, f.ds.test(), 3);
  EXPECT_GE(with_pm, without_pm - 0.03f);

  // Pure CCV: mapping decision changes nothing (same RNG stream makes
  // them bit-identical).
  PmOptions ccv_on;
  ccv_on.variation.sigma = 0.7;
  ccv_on.priority_mapping = true;
  ccv_on.seed = 19;
  PmOptions ccv_off = ccv_on;
  ccv_off.priority_mapping = false;
  EXPECT_FLOAT_EQ(run_pm(net, ccv_on, f.ds.test(), 2),
                  run_pm(net, ccv_off, f.ds.test(), 2));
}

TEST(Pm, RejectsInsufficientUnaryCapacity) {
  auto& f = fixture();
  nn::Sequential net = f.make_net(20);
  PmOptions opt;
  opt.unary_cells = 3;  // 3 cells x 3 states = 9 < msb_max 15
  EXPECT_THROW(run_pm(net, opt, f.ds.test(), 1), std::invalid_argument);
}

TEST(WriteVerify, ConvergesWithinTolerance) {
  rram::WeightProgrammer prog({rram::CellKind::SLC, 200.0}, 8, {0.5, 0.0});
  WriteVerifyOptions opt;
  opt.tolerance = 0.1;
  opt.max_pulses = 50;
  nn::Rng rng(1);
  int converged = 0;
  for (int i = 0; i < 100; ++i) {
    const WriteVerifyResult r = write_verify(prog, 200, opt, rng);
    if (r.converged) {
      ++converged;
      EXPECT_LE(std::fabs(r.crw - 200.0), 0.1 * 200.0);
    }
    EXPECT_GE(r.pulses, 1);
    EXPECT_LE(r.pulses, 50);
  }
  EXPECT_GT(converged, 80);  // generous budget converges nearly always
}

TEST(WriteVerify, ZeroVariationConvergesInOnePulse) {
  rram::WeightProgrammer prog({rram::CellKind::SLC, 200.0}, 8, {0.0, 0.0});
  WriteVerifyOptions opt;
  nn::Rng rng(2);
  const WriteVerifyResult r = write_verify(prog, 123, opt, rng);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.pulses, 1);
  EXPECT_NEAR(r.crw, 123.0, 1e-9);
}

TEST(WriteVerify, TighterToleranceNeedsMorePulses) {
  rram::WeightProgrammer prog({rram::CellKind::SLC, 200.0}, 8, {0.5, 0.0});
  WriteVerifyOptions loose;
  loose.tolerance = 0.3;
  loose.max_pulses = 100;
  WriteVerifyOptions tight = loose;
  tight.tolerance = 0.05;
  nn::Rng rng1(3), rng2(3);
  long long p_loose = 0, p_tight = 0;
  for (int i = 0; i < 200; ++i) {
    p_loose += write_verify(prog, 180, loose, rng1).pulses;
    p_tight += write_verify(prog, 180, tight, rng2).pulses;
  }
  EXPECT_GT(p_tight, p_loose);
}

TEST(WriteVerify, DeploymentRecoversAccuracyAtPulseCost) {
  auto& f = fixture();
  nn::Sequential net = f.make_net(30);
  f.pretrain(net, 31);
  const float ideal = nn::evaluate(net, f.ds.test(), 64).accuracy;
  rram::WeightProgrammer prog({rram::CellKind::SLC, 200.0}, 8, {0.4, 0.0});

  WriteVerifyOptions one_shot;
  one_shot.max_pulses = 1;  // degenerates to plain programming
  const WvDeployResult plain =
      run_write_verify(net, prog, one_shot, f.ds.test(), 3, 5);

  WriteVerifyOptions budget;
  budget.tolerance = 0.05;
  budget.max_pulses = 20;
  const WvDeployResult wv =
      run_write_verify(net, prog, budget, f.ds.test(), 3, 5);

  EXPECT_GT(wv.mean_accuracy, plain.mean_accuracy + 0.1f);
  EXPECT_GT(wv.mean_accuracy, ideal - 0.15f);
  EXPECT_GT(wv.mean_pulses, 1.5);  // the lifetime cost the paper cites
  EXPECT_NEAR(plain.mean_pulses, 1.0, 1e-9);
  // Weights restored.
  EXPECT_FLOAT_EQ(nn::evaluate(net, f.ds.test(), 64).accuracy, ideal);
}

TEST(Pm, DegradesGracefullyWithSigma) {
  auto& f = fixture();
  nn::Sequential net = f.make_net(14);
  f.pretrain(net, 15);
  PmOptions lo;
  lo.variation.sigma = 0.2;
  PmOptions hi;
  hi.variation.sigma = 1.0;
  const float a_lo = run_pm(net, lo, f.ds.test(), 2);
  const float a_hi = run_pm(net, hi, f.ds.test(), 2);
  EXPECT_GE(a_lo, a_hi - 0.02f);
}
