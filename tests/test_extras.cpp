// RLut persistence and the risk analysis module.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/analysis.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "rram/rlut.h"

using namespace rdo;
using rdo::nn::Rng;

// ------------------------------------------------------- RLut persistence

TEST(RLutIo, RoundTrip) {
  rram::WeightProgrammer prog({rram::CellKind::SLC, 200.0}, 8, {0.5, 0.0});
  const rram::RLut lut = rram::RLut::build(prog, 8, 8, Rng(4));
  const std::uint64_t fp = rram::RLut::fingerprint(prog, 8, 8, 4);
  const std::string path = std::string(::testing::TempDir()) + "lut.bin";
  lut.save(path, fp);
  rram::RLut loaded;
  ASSERT_TRUE(rram::RLut::load(path, fp, loaded));
  for (int v = 0; v <= 255; v += 15) {
    EXPECT_DOUBLE_EQ(loaded.mean(v), lut.mean(v));
    EXPECT_DOUBLE_EQ(loaded.var(v), lut.var(v));
  }
  std::remove(path.c_str());
}

TEST(RLutIo, MissingFileReturnsFalse) {
  rram::RLut lut;
  EXPECT_FALSE(rram::RLut::load(
      std::string(::testing::TempDir()) + "nope.bin", 0, lut));
}

TEST(RLutIo, CorruptFileThrows) {
  const std::string path = std::string(::testing::TempDir()) + "bad.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("garbage", f);
    std::fclose(f);
  }
  rram::RLut lut;
  EXPECT_THROW(rram::RLut::load(path, 0, lut), std::runtime_error);
  std::remove(path.c_str());
}

TEST(RLutIo, StaleConfigFingerprintIsRejectedAndRebuilt) {
  // The PR-2 satellite bugfix: a cached table saved for one device
  // configuration must not load for another. Every knob the statistics
  // depend on feeds the fingerprint.
  const rram::WeightProgrammer slc({rram::CellKind::SLC, 200.0}, 8,
                                   {0.5, 0.0});
  const std::uint64_t fp_slc = rram::RLut::fingerprint(slc, 8, 8, 4);

  // Each single-knob change must produce a distinct fingerprint.
  const rram::WeightProgrammer mlc({rram::CellKind::MLC2, 200.0}, 8,
                                   {0.5, 0.0});
  const rram::WeightProgrammer sigma({rram::CellKind::SLC, 200.0}, 8,
                                     {0.8, 0.0});
  const rram::WeightProgrammer ddv({rram::CellKind::SLC, 200.0}, 8,
                                   {0.5, 0.5});
  const rram::WeightProgrammer bits({rram::CellKind::SLC, 200.0}, 6,
                                    {0.5, 0.0});
  rram::WeightProgrammer faulty({rram::CellKind::SLC, 200.0}, 8, {0.5, 0.0},
                                {0.01, 0.0});
  EXPECT_NE(fp_slc, rram::RLut::fingerprint(mlc, 8, 8, 4));
  EXPECT_NE(fp_slc, rram::RLut::fingerprint(sigma, 8, 8, 4));
  EXPECT_NE(fp_slc, rram::RLut::fingerprint(ddv, 8, 8, 4));
  EXPECT_NE(fp_slc, rram::RLut::fingerprint(bits, 8, 8, 4));
  EXPECT_NE(fp_slc, rram::RLut::fingerprint(faulty, 8, 8, 4));
  EXPECT_NE(fp_slc, rram::RLut::fingerprint(slc, 16, 8, 4));  // K
  EXPECT_NE(fp_slc, rram::RLut::fingerprint(slc, 8, 4, 4));   // J
  EXPECT_NE(fp_slc, rram::RLut::fingerprint(slc, 8, 8, 5));   // seed

  // Stale entry on disk: load reports a miss (not corruption), the
  // caller rebuilds and overwrites, and the fresh entry then hits.
  const std::string path = std::string(::testing::TempDir()) + "stale.bin";
  rram::RLut::build(slc, 8, 8, Rng(4)).save(path, fp_slc);
  const std::uint64_t fp_sigma = rram::RLut::fingerprint(sigma, 8, 8, 4);
  rram::RLut out;
  EXPECT_FALSE(rram::RLut::load(path, fp_sigma, out));
  const rram::RLut rebuilt = rram::RLut::build(sigma, 8, 8, Rng(4));
  rebuilt.save(path, fp_sigma);
  ASSERT_TRUE(rram::RLut::load(path, fp_sigma, out));
  EXPECT_DOUBLE_EQ(out.mean(128), rebuilt.mean(128));
  std::remove(path.c_str());
}

// ---------------------------------------------------------- Risk analysis

namespace {

struct RiskFixture {
  data::SyntheticDataset ds;
  nn::Sequential net;

  RiskFixture() {
    data::SyntheticSpec spec = data::mnist_like();
    spec.height = spec.width = 10;
    spec.classes = 5;
    spec.train_per_class = 25;
    spec.test_per_class = 10;
    spec.seed = 55;
    ds = data::make_synthetic(spec);
    Rng rng(5);
    net.emplace<nn::Flatten>();
    net.emplace<nn::Dense>(100, 20, rng);
    net.emplace<nn::ReLU>();
    net.emplace<nn::Dense>(20, 5, rng);
    nn::SGD opt(net.params(), 0.1f);
    for (int e = 0; e < 8; ++e) {
      nn::train_epoch(net, opt, ds.train(), 16, rng);
    }
  }

  double risk_of(core::Scheme s, double sigma) {
    core::DeployOptions o;
    o.scheme = s;
    o.offsets.m = 10;
    o.cell = {rram::CellKind::SLC, 200.0};
    o.variation.sigma = sigma;
    o.seed = 6;
    const core::DeploymentPlan plan = core::compile_plan(net, o, ds.train());
    return core::network_risk(plan);
  }
};

RiskFixture& rf() {
  static RiskFixture f;
  return f;
}

}  // namespace

TEST(Analysis, ZeroVariationRiskIsTiny) {
  EXPECT_LT(rf().risk_of(core::Scheme::Plain, 0.0), 0.01);
}

TEST(Analysis, VawoReducesPredictedRisk) {
  const double plain = rf().risk_of(core::Scheme::Plain, 0.5);
  const double vawo = rf().risk_of(core::Scheme::VAWO, 0.5);
  const double star = rf().risk_of(core::Scheme::VAWOStar, 0.5);
  EXPECT_LT(vawo, plain);
  // VAWO* minimizes the gradient-weighted objective, so its *unweighted*
  // risk may differ from VAWO's by a little — but both sit far below
  // plain.
  EXPECT_LT(star, 0.5 * plain);
  EXPECT_NEAR(star, vawo, 0.25 * vawo);
}

TEST(Analysis, RiskGrowsWithSigma) {
  EXPECT_LT(rf().risk_of(core::Scheme::VAWOStar, 0.2),
            rf().risk_of(core::Scheme::VAWOStar, 0.8));
}

TEST(Analysis, RiskPredictsAccuracyOrdering) {
  // The predictive claim: lower network_risk => higher deployed accuracy
  // (for the same model/σ across schemes).
  auto& f = rf();
  const double risk_plain = f.risk_of(core::Scheme::Plain, 0.4);
  const double risk_star = f.risk_of(core::Scheme::VAWOStar, 0.4);
  ASSERT_LT(risk_star, risk_plain);

  auto acc = [&](core::Scheme s) {
    core::DeployOptions o;
    o.scheme = s;
    o.offsets.m = 10;
    o.cell = {rram::CellKind::SLC, 200.0};
    o.variation.sigma = 0.4;
    o.seed = 6;
    return core::run_scheme(f.net, o, f.ds.train(), f.ds.test(), 3)
        .mean_accuracy;
  };
  EXPECT_GT(acc(core::Scheme::VAWOStar), acc(core::Scheme::Plain));
}

TEST(Analysis, PerLayerRisksMatchNetworkAggregate) {
  auto& f = rf();
  core::DeployOptions o;
  o.scheme = core::Scheme::VAWOStar;
  o.offsets.m = 10;
  o.cell = {rram::CellKind::SLC, 200.0};
  o.variation.sigma = 0.5;
  o.seed = 6;
  const core::DeploymentPlan plan =
      core::compile_plan(f.net, o, f.ds.train());
  const auto layers = core::deployment_risk(plan);
  ASSERT_EQ(layers.size(), 2u);
  double total = 0.0, n = 0.0;
  const double counts[2] = {100.0 * 20.0, 20.0 * 5.0};
  for (std::size_t i = 0; i < layers.size(); ++i) {
    EXPECT_GT(layers[i].mean_sq_dev, 0.0);
    total += layers[i].mean_sq_dev * counts[i];
    n += counts[i];
  }
  EXPECT_NEAR(core::network_risk(plan), std::sqrt(total / n) / 255.0, 1e-9);
}
