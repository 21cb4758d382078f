// VAWO solver parity: the table solver must reproduce the literal
// per-candidate enumeration (tests/vawo_oracle.h) BIT FOR BIT — objective, chosen offset, complement flag and CTWs, including
// tie-breaking — across cell kinds, both objective formulations, ragged
// group sizes and targets outside the representable mean range (the
// invert_mean clamp paths), on every instruction-set copy of the offset
// sweep (nn/kernel_isa.h) this CPU runs. This is what lets deployment
// plans stay byte-identical while the solver got rewritten.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/vawo.h"
#include "vawo_oracle.h"

using namespace rdo::core;
using namespace rdo::rram;
using rdo::nn::KernelIsa;
using rdo::nn::Rng;

namespace {

RLut lut_for(double sigma, CellKind kind) {
  WeightProgrammer p({kind, 200.0}, 8, {sigma, 0.0});
  return RLut::build_analytic(p);
}

struct Config {
  CellKind kind;
  bool use_complement;
  bool penalize_bias;
};

std::vector<Config> all_configs() {
  std::vector<Config> cfgs;
  for (CellKind kind : {CellKind::SLC, CellKind::MLC2}) {
    for (bool comp : {false, true}) {
      for (bool pen : {false, true}) {
        cfgs.push_back({kind, comp, pen});
      }
    }
  }
  return cfgs;
}

/// Solve one group with the oracle and the table solver's `isa` copy and
/// require bitwise-equal results.
void expect_group_parity(KernelIsa isa, const std::vector<int>& ntw,
                         const std::vector<double>& grad, const RLut& lut,
                         const VawoOptions& opt, const VawoTable& table) {
  const int levels = lut.max_weight();
  int b_ref = -12345, b_fast = -12345;
  bool c_ref = false, c_fast = false;
  std::vector<int> ctw_ref, ctw_fast;
  const double obj_ref = rdo::oracle::vawo_solve_group(
      ntw, grad, lut, levels, opt, b_ref, c_ref, ctw_ref);
  std::vector<double> g2(grad.size());
  for (std::size_t i = 0; i < grad.size(); ++i) g2[i] = grad[i] * grad[i];
  const double obj_fast =
      detail::vawo_solve_group(isa, ntw, g2, table, opt.use_complement,
                               b_fast, c_fast, ctw_fast);
  // EXPECT_EQ on doubles is exact (==), which is the contract here — no
  // tolerance, the solvers must agree to the last bit.
  EXPECT_EQ(obj_ref, obj_fast);
  EXPECT_EQ(b_ref, b_fast);
  EXPECT_EQ(c_ref, c_fast);
  EXPECT_EQ(ctw_ref, ctw_fast);
}

class VawoIsaParity : public ::testing::TestWithParam<KernelIsa> {
 protected:
  void SetUp() override {
    if (!rdo::nn::kernel_isa_supported(isa())) {
      GTEST_SKIP() << rdo::nn::kernel_isa_name(isa())
                   << " copy unavailable here";
    }
  }
  KernelIsa isa() const { return GetParam(); }
};

TEST_P(VawoIsaParity, ExhaustiveSingleWeightSweepCoversEveryTableEntry) {
  // One-weight groups over every NTW value x every configuration: with
  // the full signed 8-bit offset range this exercises every target value
  // the table can index, including both invert_mean clamp regions
  // (target < mean(0) for ntw = 0 at b = offset_max, target >
  // mean(levels) for ntw = levels at b = offset_min).
  for (const Config& cfg : all_configs()) {
    const RLut lut = lut_for(0.5, cfg.kind);
    VawoOptions opt;
    opt.use_complement = cfg.use_complement;
    opt.penalize_bias = cfg.penalize_bias;
    const VawoTable table = VawoTable::build(lut, lut.max_weight(),
                                             opt.offsets, opt.penalize_bias);
    for (int w = 0; w <= lut.max_weight(); ++w) {
      expect_group_parity(isa(), {w}, {1.0}, lut, opt, table);
    }
  }
}

TEST_P(VawoIsaParity, RandomGroupsAcrossConfigsAndRaggedSizes) {
  Rng rng(2021);
  for (const Config& cfg : all_configs()) {
    const RLut lut = lut_for(0.7, cfg.kind);
    const int levels = lut.max_weight();
    VawoOptions opt;
    opt.use_complement = cfg.use_complement;
    opt.penalize_bias = cfg.penalize_bias;
    const VawoTable table =
        VawoTable::build(lut, levels, opt.offsets, opt.penalize_bias);
    // Ragged tail sizes next to full groups (16), covering every
    // remainder of the solver's 4-weight sweep, with gradients including
    // exact zeros (the g2 = 0 degenerate tie-break case).
    for (int size : {1, 2, 3, 5, 7, 16}) {
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<int> ntw;
        std::vector<double> grad;
        for (int i = 0; i < size; ++i) {
          ntw.push_back(static_cast<int>(rng.uniform_int(0, levels)));
          grad.push_back(trial == 0 ? 0.0 : rng.uniform(0.0, 1.0));
        }
        expect_group_parity(isa(), ntw, grad, lut, opt, table);
      }
    }
  }
}

TEST_P(VawoIsaParity, TieBreakingMatchesOnIdenticalWeightGroups) {
  // sigma = 0 makes many (offset, ctw) candidates achieve an exactly zero
  // objective; the solvers must break those ties identically (first
  // encountered in form-major, offset-ascending order wins).
  for (bool comp : {false, true}) {
    const RLut lut = lut_for(0.0, CellKind::SLC);
    VawoOptions opt;
    opt.use_complement = comp;
    const VawoTable table = VawoTable::build(lut, lut.max_weight(),
                                             opt.offsets, opt.penalize_bias);
    for (int w : {0, 1, 100, 128, 254, 255}) {
      expect_group_parity(isa(), {w, w, w, w}, {1.0, 1.0, 1.0, 1.0}, lut,
                          opt, table);
    }
  }
}

TEST_P(VawoIsaParity, NarrowRegistersStressClampPaths) {
  // 4-bit offsets (the ablation's narrowest width): most targets are
  // unreachable and the bias^2 term dominates; also checks a table whose
  // offset range is much smaller than the weight range.
  for (const Config& cfg : all_configs()) {
    const RLut lut = lut_for(1.0, cfg.kind);
    const int levels = lut.max_weight();
    VawoOptions opt;
    opt.offsets.offset_bits = 4;
    opt.use_complement = cfg.use_complement;
    opt.penalize_bias = cfg.penalize_bias;
    const VawoTable table =
        VawoTable::build(lut, levels, opt.offsets, opt.penalize_bias);
    Rng rng(7);
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<int> ntw;
      std::vector<double> grad;
      for (int i = 0; i < 6; ++i) {
        ntw.push_back(static_cast<int>(rng.uniform_int(0, levels)));
        grad.push_back(rng.uniform(0.01, 1.0));
      }
      expect_group_parity(isa(), ntw, grad, lut, opt, table);
    }
  }
}

TEST_P(VawoIsaParity, EveryOffsetBlockShapeOfTheSweep) {
  // The AVX sweep takes offsets in blocks of 16, or of 4 for 4 or 8
  // offsets, and leaves a 1-bit register to the baseline sweep: 1- to
  // 6-bit registers (2 to 64 offsets) reach each path.
  for (const Config& cfg : all_configs()) {
    const RLut lut = lut_for(0.7, cfg.kind);
    const int levels = lut.max_weight();
    for (int bits = 1; bits <= 6; ++bits) {
      VawoOptions opt;
      opt.offsets.offset_bits = bits;
      opt.use_complement = cfg.use_complement;
      opt.penalize_bias = cfg.penalize_bias;
      const VawoTable table =
          VawoTable::build(lut, levels, opt.offsets, opt.penalize_bias);
      Rng rng(static_cast<std::uint64_t>(bits));
      for (int size : {1, 5, 9}) {
        std::vector<int> ntw;
        std::vector<double> grad;
        for (int i = 0; i < size; ++i) {
          ntw.push_back(static_cast<int>(rng.uniform_int(0, levels)));
          grad.push_back(rng.uniform(0.01, 1.0));
        }
        expect_group_parity(isa(), ntw, grad, lut, opt, table);
      }
    }
  }
}

/// Byte-for-byte equality of two vectors' storage.
template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST_P(VawoIsaParity, LayerEnginesProduceIdenticalResults) {
  // Whole-layer parity, oracle layer vs vawo_layer over a caller-shared
  // table (the compile_plan path), including a ragged tail group
  // (rows % m != 0) and a gradient distribution with dead units (exact
  // zeros, exercising the floor).
  for (const Config& cfg : all_configs()) {
    const RLut lut = lut_for(0.5, cfg.kind);
    rdo::quant::LayerQuant lq;
    lq.bits = 8;
    lq.rows = 21;  // m = 8 -> groups of 8 + 8 + 5
    lq.cols = 4;
    lq.scale = 0.01f;
    lq.zero = 128;
    lq.q.resize(static_cast<std::size_t>(lq.rows * lq.cols));
    std::vector<double> grads(lq.q.size());
    Rng rng(11);
    for (std::size_t i = 0; i < lq.q.size(); ++i) {
      lq.q[i] = static_cast<int>(rng.uniform_int(0, lq.levels()));
      grads[i] = i % 5 == 0 ? 0.0 : rng.uniform(-1.0, 1.0);
    }
    VawoOptions opt;
    opt.offsets.m = 8;
    opt.use_complement = cfg.use_complement;
    opt.penalize_bias = cfg.penalize_bias;

    const VawoResult ref = rdo::oracle::vawo_layer(lq, grads, lut, opt);
    const VawoTable table = VawoTable::build(lut, lq.levels(), opt.offsets,
                                             opt.penalize_bias);
    const VawoResult res = detail::vawo_layer(isa(), lq, grads, table, opt);

    EXPECT_EQ(std::memcmp(&ref.total_objective, &res.total_objective,
                          sizeof(double)),
              0);
    EXPECT_TRUE(same_bytes(ref.ctw, res.ctw));
    EXPECT_TRUE(same_bytes(ref.offsets, res.offsets));
    EXPECT_TRUE(same_bytes(ref.complemented, res.complemented));
    EXPECT_EQ(ref.groups_per_col, res.groups_per_col);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Copies, VawoIsaParity,
    ::testing::Values(KernelIsa::baseline, KernelIsa::avx),
    [](const ::testing::TestParamInfo<KernelIsa>& info) {
      return std::string(rdo::nn::kernel_isa_name(info.param));
    });

TEST(VawoParity, SharedTableRejectsMismatchedConfiguration) {
  const RLut lut = lut_for(0.5, CellKind::SLC);
  rdo::quant::LayerQuant lq;
  lq.bits = 8;
  lq.rows = 8;
  lq.cols = 1;
  lq.q.assign(8, 100);
  std::vector<double> grads(8, 1.0);
  VawoOptions opt;
  opt.offsets.m = 4;
  // Table built for a narrower register than the solve requests.
  OffsetConfig narrow;
  narrow.offset_bits = 4;
  const VawoTable table =
      VawoTable::build(lut, lq.levels(), narrow, opt.penalize_bias);
  EXPECT_THROW(vawo_layer(lq, grads, table, opt), ContractViolation);
}

TEST(VawoParity, TableEngineRejectsOutOfRangeNtw) {
  // The oracle clamps out-of-range NTWs through invert_mean; the table
  // solver would index past its rows, so it must fail loudly.
  const RLut lut = lut_for(0.5, CellKind::SLC);
  VawoOptions opt;
  const VawoTable table = VawoTable::build(lut, lut.max_weight(),
                                           opt.offsets, opt.penalize_bias);
  int b = 0;
  bool comp = false;
  std::vector<int> ctw;
  EXPECT_THROW(
      vawo_solve_group({300}, {1.0}, table, false, b, comp, ctw),
      ContractViolation);
  EXPECT_THROW(vawo_solve_group({-1}, {1.0}, table, false, b, comp, ctw),
               ContractViolation);
}

}  // namespace
