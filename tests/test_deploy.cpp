// Deployment pipeline: compile (quantize -> assign) -> program ->
// (tune) -> eval, split into a shared DeploymentPlan plus an
// EffectiveWeightBackend execution stage.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/check.h"
#include "core/deploy.h"
#include "core/plan.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "quant/act_quant.h"

using namespace rdo;
using namespace rdo::core;

namespace {

/// Shared fixture: a small trained MLP on a small synthetic task.
struct TrainedMlp {
  data::SyntheticDataset ds;
  nn::Sequential net;
  float ideal = 0.0f;

  TrainedMlp() {
    data::SyntheticSpec spec = data::mnist_like();
    spec.height = spec.width = 12;
    spec.train_per_class = 40;
    spec.test_per_class = 12;
    spec.noise = 0.15;
    spec.max_shift = 1.0;
    spec.seed = 5;
    ds = data::make_synthetic(spec);

    nn::Rng rng(2);
    net.emplace<nn::Flatten>();
    net.emplace<quant::ActQuant>(8);
    net.emplace<nn::Dense>(12 * 12, 32, rng);
    net.emplace<nn::ReLU>();
    net.emplace<quant::ActQuant>(8);
    net.emplace<nn::Dense>(32, 10, rng);
    nn::SGD opt(net.params(), 0.1f);
    for (int e = 0; e < 12; ++e) {
      nn::train_epoch(net, opt, ds.train(), 16, rng);
    }
    ideal = nn::evaluate(net, ds.test(), 32).accuracy;
  }

  DeployOptions base_options(Scheme s, double sigma = 0.5) const {
    DeployOptions o;
    o.scheme = s;
    o.offsets.m = 16;
    o.cell = {rram::CellKind::SLC, 200.0};
    o.variation.sigma = sigma;
    o.lut_k_sets = 8;
    o.lut_j_cycles = 8;
    o.grad_samples = 128;
    o.pwt.epochs = 2;
    o.pwt.max_samples = 200;
    o.seed = 3;
    return o;
  }
};

TrainedMlp& fixture() {
  static TrainedMlp f;
  return f;
}

}  // namespace

TEST(Deploy, IdealModelIsAccurate) {
  EXPECT_GT(fixture().ideal, 0.9f);
}

TEST(Deploy, ZeroVariationMatchesQuantizedAccuracy) {
  auto& f = fixture();
  for (Scheme s : {Scheme::Plain, Scheme::VAWOStar, Scheme::VAWOStarPWT}) {
    DeployOptions o = f.base_options(s, 0.0);
    const SchemeResult res =
        run_scheme(f.net, o, f.ds.train(), f.ds.test(), 1);
    EXPECT_NEAR(res.mean_accuracy, f.ideal, 0.06f)
        << "scheme " << to_string(s);
  }
}

TEST(Deploy, PlainCollapsesUnderLargeVariation) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::Plain, 0.5);
  const SchemeResult res = run_scheme(f.net, o, f.ds.train(), f.ds.test(), 2);
  EXPECT_LT(res.mean_accuracy, f.ideal - 0.25f);
}

TEST(Deploy, SchemeOrderingUnderVariation) {
  auto& f = fixture();
  auto acc = [&](Scheme s) {
    DeployOptions o = f.base_options(s, 0.5);
    return run_scheme(f.net, o, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  };
  const float plain = acc(Scheme::Plain);
  const float vawo = acc(Scheme::VAWO);
  const float star = acc(Scheme::VAWOStar);
  const float full = acc(Scheme::VAWOStarPWT);
  EXPECT_GT(vawo, plain);
  EXPECT_GE(star, vawo - 0.02f);
  EXPECT_GT(full, plain + 0.3f);
  EXPECT_GT(full, f.ideal - 0.12f);  // near-ideal recovery
}

TEST(Deploy, CallerNetworkStaysUntouched) {
  // Backends deploy onto a private twin; the caller's float network must
  // come through the whole pipeline bit-identical.
  auto& f = fixture();
  const float before = nn::evaluate(f.net, f.ds.test(), 32).accuracy;
  {
    DeployOptions o = f.base_options(Scheme::VAWOStarPWT, 0.8);
    const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
    EffectiveWeightBackend backend(plan, f.net);
    backend.program_cycle(0);
    backend.tune(f.ds.train());
    (void)backend.evaluate(f.ds.test());
  }
  const float after = nn::evaluate(f.net, f.ds.test(), 32).accuracy;
  EXPECT_FLOAT_EQ(before, after);
}

TEST(Deploy, RequiresProgramCycleBeforeTuneOrEvaluate) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::VAWOStarPWT);
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EffectiveWeightBackend backend(plan, f.net);
  EXPECT_THROW(backend.tune(f.ds.train()), std::logic_error);
  EXPECT_THROW(backend.evaluate(f.ds.test()), std::logic_error);
}

TEST(Deploy, ThrowsOnNetworkWithoutCrossbarLayers) {
  nn::Sequential empty;
  empty.emplace<nn::Flatten>();
  DeployOptions o;
  data::SyntheticDataset& ds = fixture().ds;
  EXPECT_THROW(compile_plan(empty, o, ds.train()), std::invalid_argument);
}

TEST(Deploy, BackendRejectsMismatchedNetwork) {
  // A plan compiled for one architecture must refuse a different one.
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::Plain);
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  nn::Rng rng(17);
  nn::Sequential other;
  other.emplace<nn::Flatten>();
  other.emplace<nn::Dense>(12 * 12, 10, rng);
  EXPECT_THROW(EffectiveWeightBackend(plan, other), std::invalid_argument);
}

TEST(Deploy, CyclesDifferUnderCcv) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::Plain, 0.5);
  const SchemeResult res = run_scheme(f.net, o, f.ds.train(), f.ds.test(), 3);
  // At least two of the three cycles should give different accuracies
  // (different CRWs each cycle).
  const bool all_same = res.per_cycle[0] == res.per_cycle[1] &&
                        res.per_cycle[1] == res.per_cycle[2];
  EXPECT_FALSE(all_same);
}

TEST(Deploy, VawoStarReducesReadPower) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::VAWOStar, 0.5);
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EXPECT_LT(plan.assigned_read_power(), plan.plain_read_power());
}

TEST(Deploy, PlainSchemeReadPowerRatioIsOne) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::Plain, 0.5);
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EXPECT_DOUBLE_EQ(plan.assigned_read_power(), plan.plain_read_power());
}

TEST(Deploy, CrossbarCountMatchesTiling) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::Plain);
  o.cell = {rram::CellKind::MLC2, 200.0};  // 4 cells/weight
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  // Layer 1: 144x32 -> rows 2 tiles... 144 rows > 128 -> 2 row tiles;
  // 32 cols * 4 cells = 128 -> 1 col tile. Layer 2: 32x10 -> 1.
  EXPECT_EQ(plan.total_crossbars(), 3);
}

TEST(Deploy, OffsetRegisterCountFollowsEq9) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::Plain);
  o.offsets.m = 16;
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  // Layer 1: ceil(144/16)=9 groups * 32 cols = 288; layer 2:
  // ceil(32/16)=2 * 10 = 20.
  EXPECT_EQ(plan.total_offset_registers(), 288 + 20);
}

TEST(Deploy, SlcAndMlcBothWork) {
  auto& f = fixture();
  for (rram::CellKind kind : {rram::CellKind::SLC, rram::CellKind::MLC2}) {
    DeployOptions o = f.base_options(Scheme::VAWOStarPWT, 0.5);
    o.cell = {kind, 200.0};
    const SchemeResult res =
        run_scheme(f.net, o, f.ds.train(), f.ds.test(), 1);
    EXPECT_GT(res.mean_accuracy, 0.5f) << to_string(kind);
  }
}

TEST(Deploy, FinerGranularityNoWorseForVawo) {
  auto& f = fixture();
  DeployOptions o16 = f.base_options(Scheme::VAWO, 0.5);
  o16.offsets.m = 16;
  DeployOptions o128 = f.base_options(Scheme::VAWO, 0.5);
  o128.offsets.m = 128;
  const float a16 =
      run_scheme(f.net, o16, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  const float a128 =
      run_scheme(f.net, o128, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  EXPECT_GE(a16, a128 - 0.05f);  // paper: coarser m degrades VAWO
}

TEST(Deploy, DeterministicGivenSeed) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::VAWOStar, 0.5);
  const SchemeResult a = run_scheme(f.net, o, f.ds.train(), f.ds.test(), 1);
  const SchemeResult b = run_scheme(f.net, o, f.ds.train(), f.ds.test(), 1);
  EXPECT_FLOAT_EQ(a.mean_accuracy, b.mean_accuracy);
}

TEST(Deploy, PureDdvMakesCyclesIdentical) {
  // With ddv_fraction = 1 there is no cycle-to-cycle component: every
  // programming cycle draws the same deviations... per cycle the DDV theta
  // is drawn from the cycle's stream, so what must hold instead is that
  // the run completes and per-cycle accuracies exist; with a DDV split of
  // 0 (pure CCV) consecutive cycles differ (asserted elsewhere). Here we
  // check the split plumbing end-to-end: total variance preserved means
  // accuracy in the same ballpark for any split.
  auto& f = fixture();
  DeployOptions base = f.base_options(Scheme::VAWOStarPWT, 0.4);
  float accs[3];
  int i = 0;
  for (double ddv : {0.0, 0.5, 1.0}) {
    DeployOptions o = base;
    o.variation.ddv_fraction = ddv;
    accs[i++] =
        run_scheme(f.net, o, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  }
  // The full method measures actual conductances post-writing, so it is
  // insensitive to how the variance splits between DDV and CCV.
  EXPECT_NEAR(accs[0], accs[2], 0.15f);
  EXPECT_NEAR(accs[0], accs[1], 0.15f);
}

TEST(Deploy, NarrowOffsetRegistersStillClamp) {
  auto& f = fixture();
  DeployOptions o = f.base_options(Scheme::VAWOStarPWT, 0.5);
  o.offsets.offset_bits = 4;  // range [-8, 7]
  const DeploymentPlan plan = compile_plan(f.net, o, f.ds.train());
  EffectiveWeightBackend backend(plan, f.net);
  backend.program_cycle(0);
  backend.tune(f.ds.train());
  for (const EffectiveWeightBackend::LayerState& ls : backend.layers()) {
    for (float b : ls.offsets) {
      EXPECT_GE(b, -8.0f);
      EXPECT_LE(b, 7.0f);
    }
  }
}

TEST(Deploy, WiderOffsetRegistersNoWorse) {
  auto& f = fixture();
  DeployOptions narrow = f.base_options(Scheme::VAWOStar, 0.5);
  narrow.offsets.offset_bits = 4;
  DeployOptions wide = f.base_options(Scheme::VAWOStar, 0.5);
  wide.offsets.offset_bits = 8;
  const float a4 =
      run_scheme(f.net, narrow, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  const float a8 =
      run_scheme(f.net, wide, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  EXPECT_GE(a8, a4 - 0.05f);
}

class DeployMatrix
    : public ::testing::TestWithParam<
          std::tuple<core::Scheme, rram::CellKind, rram::VariationScope>> {};

TEST_P(DeployMatrix, EveryConfigurationRunsAndBeatsNothing) {
  // Broad sweep over the full configuration space: every (scheme, cell,
  // variation-scope) combination must deploy, evaluate above chance-floor
  // sanity, leave the caller's network untouched, and — for the
  // offset-based schemes — never fall below plain by a wide margin.
  const auto [scheme, cell, scope] = GetParam();
  auto& f = fixture();
  DeployOptions o = f.base_options(scheme, 0.4);
  o.cell = {cell, 200.0};
  o.variation.scope = scope;
  const float before = nn::evaluate(f.net, f.ds.test(), 32).accuracy;
  const SchemeResult res = run_scheme(f.net, o, f.ds.train(), f.ds.test(), 1);
  EXPECT_GT(res.mean_accuracy, 0.05f);
  EXPECT_LE(res.mean_accuracy, 1.0f);
  if (scheme == Scheme::VAWOStarPWT) {
    DeployOptions p = f.base_options(Scheme::Plain, 0.4);
    p.cell = {cell, 200.0};
    p.variation.scope = scope;
    const float plain =
        run_scheme(f.net, p, f.ds.train(), f.ds.test(), 1).mean_accuracy;
    EXPECT_GE(res.mean_accuracy, plain - 0.05f);
  }
  // The float network came through untouched.
  EXPECT_FLOAT_EQ(nn::evaluate(f.net, f.ds.test(), 32).accuracy, before);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, DeployMatrix,
    ::testing::Combine(
        ::testing::Values(Scheme::Plain, Scheme::VAWO, Scheme::VAWOStar,
                          Scheme::PWT, Scheme::VAWOStarPWT),
        ::testing::Values(rram::CellKind::SLC, rram::CellKind::MLC2),
        ::testing::Values(rram::VariationScope::PerWeight,
                          rram::VariationScope::PerCell)));

TEST(Deploy, StuckAtFaultsDegradePlainButPwtCompensates) {
  auto& f = fixture();
  DeployOptions plain = f.base_options(Scheme::Plain, 0.2);
  plain.faults.stuck_hrs_rate = 0.05;
  plain.faults.stuck_lrs_rate = 0.05;
  DeployOptions full = f.base_options(Scheme::VAWOStarPWT, 0.2);
  full.faults = plain.faults;
  const float a_plain =
      run_scheme(f.net, plain, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  const float a_full =
      run_scheme(f.net, full, f.ds.train(), f.ds.test(), 2).mean_accuracy;
  EXPECT_GT(a_full, a_plain);
}

TEST(Deploy, SchemeNames) {
  EXPECT_STREQ(to_string(Scheme::Plain), "plain");
  EXPECT_STREQ(to_string(Scheme::VAWOStar), "VAWO*");
  EXPECT_STREQ(to_string(Scheme::VAWOStarPWT), "VAWO*+PWT");
}

TEST(Deploy, ParseSchemeRoundTripsEveryScheme) {
  for (Scheme s : {Scheme::Plain, Scheme::VAWO, Scheme::VAWOStar,
                   Scheme::PWT, Scheme::VAWOStarPWT}) {
    const auto parsed = parse_scheme(to_string(s));
    ASSERT_TRUE(parsed.has_value()) << to_string(s);
    EXPECT_EQ(*parsed, s) << to_string(s);
  }
}

TEST(Deploy, ParseSchemeAcceptsCliSpellings) {
  // The CLI uses lowercase spellings; both case conventions must map to
  // the same scheme.
  EXPECT_EQ(parse_scheme("plain"), Scheme::Plain);
  EXPECT_EQ(parse_scheme("vawo"), Scheme::VAWO);
  EXPECT_EQ(parse_scheme("vawo*"), Scheme::VAWOStar);
  EXPECT_EQ(parse_scheme("pwt"), Scheme::PWT);
  EXPECT_EQ(parse_scheme("vawo*+pwt"), Scheme::VAWOStarPWT);
}

TEST(Deploy, ParseSchemeRejectsUnknownNames) {
  EXPECT_FALSE(parse_scheme("").has_value());
  EXPECT_FALSE(parse_scheme("vawo**").has_value());
  EXPECT_FALSE(parse_scheme("plain ").has_value());
  EXPECT_FALSE(parse_scheme("vawo+pwt").has_value());
  EXPECT_FALSE(parse_scheme("offset").has_value());
}

namespace {

/// One precondition of check_options at one end of its range: the field
/// its message names, a setter, the last value that passes and the first
/// that fails. Integer fields go through the double unchanged.
struct Bound {
  const char* field;
  void (*set)(DeployOptions&, double);
  double last_valid;
  double first_invalid;
};

double above(double v) { return std::nextafter(v, HUGE_VAL); }
double below(double v) { return std::nextafter(v, -HUGE_VAL); }
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::vector<Bound> bounds() {
  const auto m = [](DeployOptions& o, double v) {
    o.offsets.m = static_cast<int>(v);
  };
  const auto obits = [](DeployOptions& o, double v) {
    o.offsets.offset_bits = static_cast<int>(v);
  };
  const auto ratio = [](DeployOptions& o, double v) {
    o.cell.on_off_ratio = v;
  };
  const auto sigma = [](DeployOptions& o, double v) {
    o.variation.sigma = v;
  };
  const auto ddv = [](DeployOptions& o, double v) {
    o.variation.ddv_fraction = v;
  };
  const auto hrs = [](DeployOptions& o, double v) {
    o.faults.stuck_hrs_rate = v;
  };
  const auto lrs = [](DeployOptions& o, double v) {
    o.faults.stuck_lrs_rate = v;
  };
  const auto wbits = [](DeployOptions& o, double v) {
    o.weight_bits = static_cast<int>(v);
  };
  const auto mlc2_wbits = [](DeployOptions& o, double v) {
    o.cell.kind = rram::CellKind::MLC2;
    o.weight_bits = static_cast<int>(v);
  };
  const auto k_sets = [](DeployOptions& o, double v) {
    o.lut_k_sets = static_cast<int>(v);
  };
  const auto j_cycles = [](DeployOptions& o, double v) {
    o.lut_j_cycles = static_cast<int>(v);
  };
  const auto k1024_j = [](DeployOptions& o, double v) {
    o.lut_k_sets = 1024;
    o.lut_j_cycles = static_cast<int>(v);
  };
  const auto gsamples = [](DeployOptions& o, double v) {
    o.grad_samples = static_cast<std::int64_t>(v);
  };
  const auto epochs = [](DeployOptions& o, double v) {
    o.pwt.epochs = static_cast<int>(v);
  };
  const auto pmax = [](DeployOptions& o, double v) {
    o.pwt.max_samples = static_cast<std::int64_t>(v);
  };
  return {
      {"offsets.m", m, 1, 0},
      {"offsets.m", m, 1 << 20, (1 << 20) + 1},
      {"offsets.offset_bits", obits, 1, 0},
      {"offsets.offset_bits", obits, 16, 17},
      {"cell.on_off_ratio", ratio, above(1.0), 1.0},
      {"cell.on_off_ratio", ratio, 1e9, above(1e9)},
      {"cell.on_off_ratio", ratio, 200.0, kNaN},
      {"variation.sigma", sigma, 0.0, below(0.0)},
      {"variation.sigma", sigma, 8.0, above(8.0)},
      {"variation.sigma", sigma, 0.5, kNaN},
      {"variation.ddv_fraction", ddv, 0.0, below(0.0)},
      {"variation.ddv_fraction", ddv, 1.0, above(1.0)},
      {"variation.ddv_fraction", ddv, 0.5, kNaN},
      {"faults.stuck_hrs_rate", hrs, 0.0, below(0.0)},
      {"faults.stuck_hrs_rate", hrs, 1.0, above(1.0)},
      {"faults.stuck_hrs_rate", hrs, 0.5, kNaN},
      {"faults.stuck_lrs_rate", lrs, 0.0, below(0.0)},
      {"faults.stuck_lrs_rate", lrs, 1.0, above(1.0)},
      {"faults.stuck_lrs_rate", lrs, 0.5, kNaN},
      {"weight_bits", wbits, 1, 0},
      {"weight_bits", wbits, 16, 17},
      {"weight_bits", mlc2_wbits, 16, 15},
      {"lut_k_sets", k_sets, 1, 0},
      {"lut_j_cycles", j_cycles, 1, 0},
      {"lut_k_sets * lut_j_cycles", k1024_j, 1024, 1025},
      {"grad_samples", gsamples, 0, -1},
      {"pwt.epochs", epochs, 0, -1},
      {"pwt.epochs", epochs, 1024, 1025},
      {"pwt.max_samples", pmax, 0, -1},
  };
}

}  // namespace

TEST(CheckOptions, EveryBoundPassesItsLastValidValueAndNotTheNext) {
  for (const Bound& b : bounds()) {
    DeployOptions ok;
    b.set(ok, b.last_valid);
    EXPECT_NO_THROW(check_options(ok)) << b.field << " = " << b.last_valid;

    DeployOptions bad;
    b.set(bad, b.first_invalid);
    try {
      check_options(bad);
      ADD_FAILURE() << b.field << " = " << b.first_invalid << " passed";
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("DeployOptions: ") +
                                           b.field + " = "),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CheckOptions, CompilePlanChecksBeforeCompiling) {
  // A plain compile never reads the PWT epoch count, so only the
  // up-front check can reject it.
  const TrainedMlp& f = fixture();
  DeployOptions o = f.base_options(Scheme::Plain);
  o.pwt.epochs = 1025;
  EXPECT_THROW((void)compile_plan(f.net, o, f.ds.train()), ContractViolation);
  EXPECT_THROW((void)compile_plan(f.net, o, f.ds.train(),
                                  plan_fingerprint(f.net, o, f.ds.train())),
               ContractViolation);
}
