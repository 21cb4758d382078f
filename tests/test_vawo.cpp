// VAWO group solver and layer-level assignment (paper §III-B, §III-C).
#include <gtest/gtest.h>

#include <cmath>

#include "core/vawo.h"

using namespace rdo::core;
using namespace rdo::rram;
using rdo::nn::Rng;

namespace {

const CellModel kSlc{CellKind::SLC, 200.0};

RLut lut_for(double sigma, CellKind kind = CellKind::SLC) {
  WeightProgrammer p({kind, 200.0}, 8, {sigma, 0.0});
  return RLut::build_analytic(p);
}

rdo::quant::LayerQuant make_lq(std::int64_t rows, std::int64_t cols,
                               const std::vector<int>& q) {
  rdo::quant::LayerQuant lq;
  lq.bits = 8;
  lq.rows = rows;
  lq.cols = cols;
  lq.scale = 0.01f;
  lq.zero = 128;
  lq.q = q;
  return lq;
}

/// One group through the production solver: a table built for (lut,
/// 8-bit weights, opt) and the squared gradient weights.
double solve(const std::vector<int>& ntw, const std::vector<double>& grad,
             const RLut& lut, const VawoOptions& opt, int& b, bool& comp,
             std::vector<int>& ctw) {
  const VawoTable table =
      VawoTable::build(lut, 255, opt.offsets, opt.penalize_bias);
  std::vector<double> g2;
  for (double g : grad) g2.push_back(g * g);
  return vawo_solve_group(ntw, g2, table, opt.use_complement, b, comp, ctw);
}

/// A whole layer through vawo_layer over a table built for it.
VawoResult layer(const rdo::quant::LayerQuant& lq,
                 const std::vector<double>& grads, const RLut& lut,
                 const VawoOptions& opt) {
  return vawo_layer(
      lq, grads,
      VawoTable::build(lut, lq.levels(), opt.offsets, opt.penalize_bias),
      opt);
}

}  // namespace

TEST(Vawo, ZeroVarianceRecoversNtwExactly) {
  // sigma = 0: E[R(v)] = v, Var = 0 -> any offset works; the solution must
  // satisfy v + b = ntw exactly.
  const RLut lut = lut_for(0.0);
  VawoOptions opt;
  int b = 0;
  bool comp = false;
  std::vector<int> ctw;
  const std::vector<int> ntw{50, 60, 70, 80};
  const std::vector<double> grad{1.0, 1.0, 1.0, 1.0};
  const double obj = solve(ntw, grad, lut, opt, b, comp, ctw);
  EXPECT_NEAR(obj, 0.0, 1e-9);
  for (std::size_t i = 0; i < ntw.size(); ++i) {
    EXPECT_EQ(ctw[i] + b, ntw[i]);
  }
}

TEST(Vawo, IdenticalWeightsAreAbsorbedByTheOffset) {
  // A group of identical weights can be represented exactly by the offset
  // alone (v = 0, zero device variance): E[NRW] lands on the NTW.
  const RLut lut = lut_for(0.5);
  VawoOptions opt;
  int b = 0;
  bool comp = false;
  std::vector<int> ctw;
  const std::vector<int> ntw{100, 100, 100, 100};
  const std::vector<double> grad{1.0, 1.0, 1.0, 1.0};
  solve(ntw, grad, lut, opt, b, comp, ctw);
  for (std::size_t i = 0; i < ntw.size(); ++i) {
    EXPECT_NEAR(lut.mean(ctw[i]) + b, static_cast<double>(ntw[i]), 1.5);
  }
}

TEST(Vawo, ReportedObjectiveMatchesRecomputation) {
  // Internal consistency: the returned objective equals the objective
  // recomputed from the returned (ctw, b, complemented) solution.
  const RLut lut = lut_for(0.5);
  VawoOptions opt;
  opt.use_complement = true;
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> ntw;
    std::vector<double> grad;
    for (int i = 0; i < 8; ++i) {
      ntw.push_back(static_cast<int>(rng.uniform_int(0, 255)));
      grad.push_back(rng.uniform(0.01, 1.0));
    }
    int b = 0;
    bool comp = false;
    std::vector<int> ctw;
    const double obj =
        solve(ntw, grad, lut, opt, b, comp, ctw);
    double recomputed = 0.0;
    for (std::size_t i = 0; i < ntw.size(); ++i) {
      const int target = comp ? 255 - ntw[i] : ntw[i];
      const double bias = lut.mean(ctw[i]) + b - target;
      recomputed += grad[i] * grad[i] * (lut.var(ctw[i]) + bias * bias);
    }
    EXPECT_NEAR(obj, recomputed, 1e-9 * std::max(1.0, recomputed));
  }
}

TEST(Vawo, PrefersLowerCtwThanNtw) {
  // E[R(v)] > v (lognormal inflation), so the unbiased CTW is below the
  // NTW and the offset positive — the mechanism behind Table I's reading
  // power saving.
  const RLut lut = lut_for(0.5);
  VawoOptions opt;
  int b = 0;
  bool comp = false;
  std::vector<int> ctw;
  const std::vector<int> ntw{180, 190, 200, 210};
  const std::vector<double> grad{1.0, 1.0, 1.0, 1.0};
  solve(ntw, grad, lut, opt, b, comp, ctw);
  if (!comp) {
    for (std::size_t i = 0; i < ntw.size(); ++i) EXPECT_LT(ctw[i], ntw[i]);
  }
}

TEST(Vawo, ObjectiveNeverWorseThanPlainAssignment) {
  const RLut lut = lut_for(0.5);
  VawoOptions opt;
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> ntw;
    std::vector<double> grad;
    for (int i = 0; i < 8; ++i) {
      ntw.push_back(static_cast<int>(rng.uniform_int(0, 255)));
      grad.push_back(rng.uniform(0.01, 1.0));
    }
    int b = 0;
    bool comp = false;
    std::vector<int> ctw;
    const double obj =
        solve(ntw, grad, lut, opt, b, comp, ctw);
    // Plain: v = ntw, b = 0; objective includes the (large) bias term from
    // the lognormal mean inflation.
    double plain = 0.0;
    for (std::size_t i = 0; i < ntw.size(); ++i) {
      const double bias = lut.mean(ntw[i]) - ntw[i];
      plain += grad[i] * grad[i] * (lut.var(ntw[i]) + bias * bias);
    }
    EXPECT_LE(obj, plain + 1e-9);
  }
}

TEST(Vawo, ComplementChosenForHighWeights) {
  // A group of near-maximal weights: stored directly they need high-
  // conductance (high-variance) devices; complemented they become small
  // values on low-variance devices. VAWO* must pick the complement.
  const RLut lut = lut_for(0.5);
  VawoOptions opt;
  opt.use_complement = true;
  int b = 0;
  bool comp = false;
  std::vector<int> ctw;
  const std::vector<int> ntw{250, 252, 248, 255};
  const std::vector<double> grad{1.0, 1.0, 1.0, 1.0};
  solve(ntw, grad, lut, opt, b, comp, ctw);
  EXPECT_TRUE(comp);
}

TEST(Vawo, ComplementObjectiveNeverWorseThanWithout) {
  const RLut lut = lut_for(0.7);
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> ntw;
    std::vector<double> grad;
    for (int i = 0; i < 6; ++i) {
      ntw.push_back(static_cast<int>(rng.uniform_int(0, 255)));
      grad.push_back(rng.uniform(0.01, 1.0));
    }
    VawoOptions plain_opt;
    VawoOptions star_opt;
    star_opt.use_complement = true;
    int b = 0;
    bool comp = false;
    std::vector<int> ctw;
    const double o1 =
        solve(ntw, grad, lut, plain_opt, b, comp, ctw);
    const double o2 =
        solve(ntw, grad, lut, star_opt, b, comp, ctw);
    EXPECT_LE(o2, o1 + 1e-12);
  }
}

TEST(Vawo, OffsetStaysInRegisterRange) {
  const RLut lut = lut_for(1.0);
  VawoOptions opt;
  opt.offsets.offset_bits = 8;
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> ntw;
    std::vector<double> grad;
    for (int i = 0; i < 4; ++i) {
      ntw.push_back(static_cast<int>(rng.uniform_int(0, 255)));
      grad.push_back(1.0);
    }
    int b = 0;
    bool comp = false;
    std::vector<int> ctw;
    solve(ntw, grad, lut, opt, b, comp, ctw);
    EXPECT_GE(b, -128);
    EXPECT_LE(b, 127);
  }
}

TEST(Vawo, HighGradientWeightGetsLowerVarianceChoice) {
  // Two groups identical except one weight's gradient: the solver may pick
  // a different trade-off, but the weighted objective of the high-gradient
  // group must dominate correctly (monotone in gradient scaling).
  const RLut lut = lut_for(0.5);
  VawoOptions opt;
  int b = 0;
  bool comp = false;
  std::vector<int> ctw;
  const std::vector<int> ntw{128, 128};
  const double o_lo =
      solve(ntw, {0.1, 0.1}, lut, opt, b, comp, ctw);
  const double o_hi =
      solve(ntw, {1.0, 1.0}, lut, opt, b, comp, ctw);
  EXPECT_NEAR(o_hi, o_lo * 100.0, o_lo * 5.0);  // scales ~ grad^2
}

TEST(Vawo, RejectsEmptyOrMismatchedGroup) {
  const RLut lut = lut_for(0.5);
  VawoOptions opt;
  int b;
  bool comp;
  std::vector<int> ctw;
  EXPECT_THROW(solve({}, {}, lut, opt, b, comp, ctw), std::invalid_argument);
  EXPECT_THROW(solve({1, 2}, {1.0}, lut, opt, b, comp, ctw),
               std::invalid_argument);
}

TEST(Vawo, RejectsHostileOffsetConfig) {
  // offset_bits = 0 would shift by -1 (UB) and enumerate nothing, leaving
  // the out-parameters uninitialized; >= 31 overflows the register range,
  // and 17 already asks VawoTable::build for 2^17-entry arrays.
  // Both must fail loudly at the solver boundary, never solve silently:
  // when the table is built, and when a layer is solved against a table
  // built for a legal configuration.
  const RLut lut = lut_for(0.5);
  const auto lq = make_lq(4, 1, {1, 2, 3, 4});
  std::vector<double> grads(4, 1.0);
  const VawoOptions legal;
  const VawoTable table =
      VawoTable::build(lut, 255, legal.offsets, legal.penalize_bias);
  for (int bits : {0, -3, 17, 31, 64}) {
    VawoOptions opt;
    opt.offsets.offset_bits = bits;
    EXPECT_THROW(VawoTable::build(lut, 255, opt.offsets, opt.penalize_bias),
                 rdo::core::ContractViolation)
        << "offset_bits = " << bits;
    EXPECT_THROW(vawo_layer(lq, grads, table, opt),
                 rdo::core::ContractViolation)
        << "offset_bits = " << bits;
  }
  VawoOptions bad_m;
  bad_m.offsets.m = 0;
  EXPECT_THROW(vawo_layer(lq, grads, table, bad_m),
               rdo::core::ContractViolation);
}

TEST(Vawo, SolveAlwaysWritesOutParameters) {
  // A successful solve must never leave the out-parameters untouched
  // (the historical uninitialized-read hazard in vawo_layer).
  const RLut lut = lut_for(0.5);
  VawoOptions opt;
  opt.offsets.offset_bits = 1;  // smallest legal register: b in {-1, 0}
  int b = -999;
  bool comp = true;
  std::vector<int> ctw;
  solve({5, 6}, {1.0, 1.0}, lut, opt, b, comp, ctw);
  EXPECT_GE(b, -1);
  EXPECT_LE(b, 0);
  EXPECT_FALSE(comp);  // complement disabled
  EXPECT_EQ(ctw.size(), 2u);
}

TEST(Vawo, LayerAssignmentShapes) {
  const RLut lut = lut_for(0.5);
  std::vector<int> q(32 * 3);
  for (std::size_t i = 0; i < q.size(); ++i) {
    q[i] = static_cast<int>(i * 7 % 256);
  }
  const auto lq = make_lq(32, 3, q);
  std::vector<double> grads(q.size(), 0.5);
  VawoOptions opt;
  opt.offsets.m = 8;
  const VawoResult res = layer(lq, grads, lut, opt);
  EXPECT_EQ(res.groups_per_col, 4);
  EXPECT_EQ(res.ctw.size(), q.size());
  EXPECT_EQ(res.offsets.size(), 12u);
  EXPECT_EQ(res.complemented.size(), 12u);
  EXPECT_GE(res.total_objective, 0.0);
}

TEST(Vawo, LayerHandlesRaggedTailGroup) {
  const RLut lut = lut_for(0.5);
  std::vector<int> q(10, 100);  // 10 rows, 1 col, m = 4 -> groups 4+4+2
  const auto lq = make_lq(10, 1, q);
  std::vector<double> grads(q.size(), 1.0);
  VawoOptions opt;
  opt.offsets.m = 4;
  const VawoResult res = layer(lq, grads, lut, opt);
  EXPECT_EQ(res.groups_per_col, 3);
}

TEST(Vawo, LayerRejectsGradientMismatch) {
  const RLut lut = lut_for(0.5);
  const auto lq = make_lq(4, 1, {1, 2, 3, 4});
  std::vector<double> grads(3, 1.0);
  VawoOptions opt;
  EXPECT_THROW(layer(lq, grads, lut, opt), std::invalid_argument);
}

TEST(Vawo, PlainLayerIsIdentityAssignment) {
  const auto lq = make_lq(8, 2, std::vector<int>(16, 42));
  const VawoResult res = plain_layer(lq, 4);
  EXPECT_EQ(res.groups_per_col, 2);
  for (int v : res.ctw) EXPECT_EQ(v, 42);
  for (float b : res.offsets) EXPECT_EQ(b, 0.0f);
  for (auto c : res.complemented) EXPECT_EQ(c, 0);
}

TEST(Vawo, StrictPaperObjectiveStillSolves) {
  // penalize_bias = false (the paper's exact Eq. 5 objective).
  const RLut lut = lut_for(0.5);
  VawoOptions opt;
  opt.penalize_bias = false;
  int b = 0;
  bool comp = false;
  std::vector<int> ctw;
  const std::vector<int> ntw{10, 240};
  const std::vector<double> grad{1.0, 1.0};
  const double obj = solve(ntw, grad, lut, opt, b, comp, ctw);
  EXPECT_GE(obj, 0.0);
}
