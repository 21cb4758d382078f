// VAWO solver parity: the table solver must reproduce the literal
// per-candidate enumeration (tests/vawo_oracle.h) BIT FOR BIT — objective, chosen offset, complement flag and CTWs, including
// tie-breaking — across cell kinds, both objective formulations, ragged
// group sizes and targets outside the representable mean range (the
// invert_mean clamp paths), on every instruction-set copy of the offset
// sweep (nn/kernel_isa.h) this CPU runs. This is what lets deployment
// plans stay byte-identical while the solver got rewritten.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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

/// Whole-layer parity, oracle layer vs vawo_layer's `isa` copy over a
/// caller-shared table (the compile_plan path), byte for byte.
void expect_layer_parity(KernelIsa isa, const rdo::quant::LayerQuant& lq,
                         const std::vector<double>& grads, const RLut& lut,
                         const VawoOptions& opt) {
  const VawoResult ref = rdo::oracle::vawo_layer(lq, grads, lut, opt);
  const VawoTable table =
      VawoTable::build(lut, lq.levels(), opt.offsets, opt.penalize_bias);
  const VawoResult res = detail::vawo_layer(isa, lq, grads, table, opt);
  EXPECT_EQ(std::memcmp(&ref.total_objective, &res.total_objective,
                        sizeof(double)),
            0);
  EXPECT_TRUE(same_bytes(ref.ctw, res.ctw));
  EXPECT_TRUE(same_bytes(ref.offsets, res.offsets));
  EXPECT_TRUE(same_bytes(ref.complemented, res.complemented));
  EXPECT_EQ(ref.groups_per_col, res.groups_per_col);
}

rdo::quant::LayerQuant layer_of(std::int64_t rows, std::int64_t cols) {
  rdo::quant::LayerQuant lq;
  lq.bits = 8;
  lq.rows = rows;
  lq.cols = cols;
  lq.scale = 0.01f;
  lq.zero = 128;
  lq.q.resize(static_cast<std::size_t>(rows * cols));
  return lq;
}

/// The blocks of one group, over both forms, whose lower bound (the
/// solver's sum over window minima, with the solver's gradient floor)
/// exceeds the group's winning objective: the pruned search may never
/// sweep them whatever its visiting order. Counted over a whole layer.
struct BoundCount {
  std::int64_t ruled_out = 0;
  std::int64_t blocks = 0;
};

BoundCount blocks_ruled_out(const rdo::quant::LayerQuant& lq,
                            const std::vector<double>& grads,
                            const VawoTable& table, const VawoOptions& opt) {
  double mean_abs = 0.0;
  for (double g : grads) mean_abs += std::fabs(g);
  mean_abs /= static_cast<double>(grads.size());
  const double floor = mean_abs > 0.0 ? 0.05 * mean_abs : 1.0;
  const int width = table.block_width();
  const int blocks = table.offset_count() / width;
  BoundCount count;
  for (std::int64_t c = 0; c < lq.cols; ++c) {
    for (std::int64_t r0 = 0; r0 < lq.rows; r0 += opt.offsets.m) {
      const std::int64_t r1 = std::min(lq.rows, r0 + opt.offsets.m);
      std::vector<int> ntw;
      std::vector<double> g2;
      for (std::int64_t r = r0; r < r1; ++r) {
        ntw.push_back(lq.at(r, c));
        const double w = std::max(
            std::fabs(grads[static_cast<std::size_t>(r * lq.cols + c)]),
            floor);
        g2.push_back(w * w);
      }
      int b = 0;
      bool comp = false;
      std::vector<int> ctw;
      const double best = vawo_solve_group(ntw, g2, table,
                                           opt.use_complement, b, comp, ctw);
      for (int form = 0; form < (opt.use_complement ? 2 : 1); ++form) {
        for (int k = 0; k < blocks; ++k) {
          double lb = 0.0;
          for (std::size_t i = 0; i < ntw.size(); ++i) {
            const int tau = form == 1 ? lq.levels() - ntw[i] : ntw[i];
            const double v = table.var_min_row(tau)[k];
            const double a = table.abs_bias_min_row(tau)[k];
            double term = g2[i] * v;
            term += g2[i] * a * a;
            lb += term;
          }
          ++count.blocks;
          if (lb > best) ++count.ruled_out;
        }
      }
    }
  }
  return count;
}

TEST_P(VawoIsaParity, LayerEnginesProduceIdenticalResults) {
  // Whole-layer parity including a ragged tail group (rows % m != 0) and
  // a gradient distribution with dead units (exact zeros, exercising the
  // floor).
  for (const Config& cfg : all_configs()) {
    const RLut lut = lut_for(0.5, cfg.kind);
    rdo::quant::LayerQuant lq = layer_of(21, 4);  // m = 8: 8 + 8 + 5
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
    expect_layer_parity(isa(), lq, grads, lut, opt);
  }
}

TEST_P(VawoIsaParity, TrainedLikeLayerWhereBlocksAreSkipped) {
  // NTWs clustered around the zero point, as a trained layer's are, make
  // an objective whose far offset blocks the lower bound rules out: the
  // precondition below checks that a large share of the blocks cannot be
  // swept, so the solver's skips and drops are exercised, at every group
  // size of the paper and at 64, 256 and 1024 offsets.
  for (CellKind kind : {CellKind::SLC, CellKind::MLC2}) {
    const RLut lut = lut_for(0.5, kind);
    rdo::quant::LayerQuant lq = layer_of(128, 6);
    std::vector<double> grads(lq.q.size());
    Rng rng(2026);
    for (std::size_t i = 0; i < lq.q.size(); ++i) {
      const double w = std::round(lq.zero + rng.normal(0.0, 12.0));
      lq.q[i] = static_cast<int>(std::clamp(w, 0.0, 255.0));
      grads[i] = rng.normal(0.0, 1.0);
    }
    for (int m : {16, 64, 128}) {
      for (int bits : {6, 8, 10}) {
        VawoOptions opt;
        opt.offsets.m = m;
        opt.offsets.offset_bits = bits;
        opt.use_complement = true;
        SCOPED_TRACE(testing::Message() << "kind " << static_cast<int>(kind)
                                        << " m " << m << " bits " << bits);
        const VawoTable table = VawoTable::build(
            lut, lq.levels(), opt.offsets, opt.penalize_bias);
        const BoundCount count = blocks_ruled_out(lq, grads, table, opt);
        EXPECT_GT(count.ruled_out * 2, count.blocks)
            << count.ruled_out << " of " << count.blocks;
        expect_layer_parity(isa(), lq, grads, lut, opt);
      }
    }
  }
}

TEST_P(VawoIsaParity, ZeroVarianceTiesAcrossBlocksKeepTheFirstEnumerated) {
  // At sigma = 0 every reachable target costs exactly zero, so many
  // offsets in many blocks tie. The search visits the block of offset 0
  // first, but the oracle's first minimum is the lowest tied offset,
  // blocks away: every other tied block must still be swept (pruning on
  // >= would skip it) and the scan must keep enumeration order.
  const RLut lut = lut_for(0.0, CellKind::SLC);
  for (bool comp : {false, true}) {
    VawoOptions opt;
    opt.use_complement = comp;
    const VawoTable table = VawoTable::build(lut, lut.max_weight(),
                                             opt.offsets, opt.penalize_bias);
    for (int w : {40, 100, 200}) {
      const std::vector<int> ntw(8, w);
      const std::vector<double> g2(8, 1.0);
      int b = 0;
      bool c = false;
      std::vector<int> ctw;
      EXPECT_EQ(vawo_solve_group(ntw, g2, table, comp, b, c, ctw), 0.0);
      // The winner's block is not the block of offset 0.
      EXPECT_NE((table.offset_max() - b) / VawoTable::kBlock,
                table.offset_max() / VawoTable::kBlock)
          << "w " << w;
      expect_group_parity(isa(), ntw, std::vector<double>(8, 1.0), lut, opt,
                          table);
    }
    // A layer of such groups carries the previous winner's block as its
    // start, so each group starts somewhere else.
    rdo::quant::LayerQuant lq = layer_of(64, 3);
    std::vector<double> grads(lq.q.size());
    Rng rng(5);
    for (std::size_t i = 0; i < lq.q.size(); ++i) {
      lq.q[i] = static_cast<int>(rng.uniform_int(0, lq.levels()));
      grads[i] = rng.uniform(-1.0, 1.0);
    }
    opt.offsets.m = 16;
    expect_layer_parity(isa(), lq, grads, lut, opt);
  }
}

TEST_P(VawoIsaParity, WinnerInTheFormVisitedSecond) {
  // High NTWs win complemented and low NTWs win in the base form, so
  // groups alternating between the two make the layer search, which
  // starts in the previous winner's form, find the winner in the form it
  // visits second, both ways round; a single group starts in the base
  // form, so a high group wins in the second.
  for (CellKind kind : {CellKind::SLC, CellKind::MLC2}) {
    const RLut lut = lut_for(0.5, kind);
    VawoOptions opt;
    opt.offsets.m = 16;
    opt.use_complement = true;
    rdo::quant::LayerQuant lq = layer_of(96, 2);
    std::vector<double> grads(lq.q.size());
    Rng rng(17);
    for (std::int64_t r = 0; r < lq.rows; ++r) {
      for (std::int64_t c = 0; c < lq.cols; ++c) {
        const bool high = (r / opt.offsets.m + c) % 2 == 0;
        const int centre = high ? 235 : 20;
        const std::size_t i = static_cast<std::size_t>(r * lq.cols + c);
        lq.q[i] = centre + static_cast<int>(rng.uniform_int(-15, 15));
        grads[i] = rng.uniform(-1.0, 1.0);
      }
    }
    const VawoTable table = VawoTable::build(lut, lq.levels(), opt.offsets,
                                             opt.penalize_bias);
    const VawoResult res = detail::vawo_layer(isa(), lq, grads, table, opt);
    int switches = 0;
    for (std::size_t k = 1; k < res.complemented.size(); ++k) {
      switches += res.complemented[k] != res.complemented[k - 1];
    }
    EXPECT_GE(switches, 4);
    expect_layer_parity(isa(), lq, grads, lut, opt);
    const std::vector<int> high(16, 240);
    const std::vector<double> ones(16, 1.0);
    int b = 0;
    bool comp = false;
    std::vector<int> ctw;
    detail::vawo_solve_group(isa(), high, ones, table, true, b, comp, ctw);
    EXPECT_TRUE(comp);
    expect_group_parity(isa(), high, ones, lut, opt, table);
  }
}

TEST_P(VawoIsaParity, LayersAtFewerThanABlockAndAt1024Offsets) {
  // 2, 4 and 8 offsets fill part of one block (the lanes past the
  // register are padding the search ignores); 1024 offsets make 64
  // blocks per form.
  for (const Config& cfg : all_configs()) {
    const RLut lut = lut_for(0.7, cfg.kind);
    rdo::quant::LayerQuant lq = layer_of(40, 3);
    std::vector<double> grads(lq.q.size());
    Rng rng(23);
    for (std::size_t i = 0; i < lq.q.size(); ++i) {
      lq.q[i] = static_cast<int>(rng.uniform_int(0, lq.levels()));
      grads[i] = rng.uniform(-1.0, 1.0);
    }
    for (int bits : {1, 2, 3, 10}) {
      VawoOptions opt;
      opt.offsets.m = 16;
      opt.offsets.offset_bits = bits;
      opt.use_complement = cfg.use_complement;
      opt.penalize_bias = cfg.penalize_bias;
      SCOPED_TRACE(testing::Message() << "bits " << bits);
      expect_layer_parity(isa(), lq, grads, lut, opt);
    }
  }
}

TEST_P(VawoIsaParity, InfiniteGradientsMatchTheFirstCandidateRule) {
  // A squared gradient weight of +inf makes every candidate of its group
  // +inf or NaN (inf * 0): nothing is pruned and the winner is the first
  // enumerated candidate, as in the oracle. Solved beside finite groups,
  // and as a layer whose one +inf gradient floors every weight at +inf
  // (the floor is a share of the mean |gradient|). Such an objective is
  // compared only as non-finite: with penalize_bias off the solver adds
  // (g * 0) * 0 = NaN where the oracle adds no bias term and keeps +inf.
  const double inf = std::numeric_limits<double>::infinity();
  for (const Config& cfg : all_configs()) {
    const RLut lut = lut_for(0.5, cfg.kind);
    VawoOptions opt;
    opt.use_complement = cfg.use_complement;
    opt.penalize_bias = cfg.penalize_bias;
    const VawoTable table = VawoTable::build(lut, lut.max_weight(),
                                             opt.offsets, opt.penalize_bias);
    Rng rng(29);
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<int> ntw(8);
      std::vector<double> grad(8);
      for (std::size_t i = 0; i < ntw.size(); ++i) {
        ntw[i] = static_cast<int>(rng.uniform_int(0, lut.max_weight()));
        grad[i] = rng.uniform(-1.0, 1.0);
      }
      if (trial % 2 == 1) grad[static_cast<std::size_t>(trial)] = inf;
      int b_ref = 0, b_fast = 0;
      bool c_ref = false, c_fast = false;
      std::vector<int> ctw_ref, ctw_fast;
      const double obj_ref = rdo::oracle::vawo_solve_group(
          ntw, grad, lut, lut.max_weight(), opt, b_ref, c_ref, ctw_ref);
      std::vector<double> g2(grad.size());
      for (std::size_t i = 0; i < grad.size(); ++i) g2[i] = grad[i] * grad[i];
      const double obj_fast =
          detail::vawo_solve_group(isa(), ntw, g2, table, opt.use_complement,
                                   b_fast, c_fast, ctw_fast);
      SCOPED_TRACE(testing::Message() << "trial " << trial);
      EXPECT_EQ(b_ref, b_fast);
      EXPECT_EQ(c_ref, c_fast);
      EXPECT_EQ(ctw_ref, ctw_fast);
      if (trial % 2 == 1) {
        EXPECT_FALSE(std::isfinite(obj_ref));
        EXPECT_FALSE(std::isfinite(obj_fast));
        EXPECT_EQ(b_fast, opt.offsets.offset_min());
        EXPECT_FALSE(c_fast);
      } else {
        EXPECT_EQ(obj_ref, obj_fast);
      }
    }
    rdo::quant::LayerQuant lq = layer_of(24, 2);
    std::vector<double> grads(lq.q.size());
    for (std::size_t i = 0; i < lq.q.size(); ++i) {
      lq.q[i] = static_cast<int>(rng.uniform_int(0, lq.levels()));
      grads[i] = rng.uniform(-1.0, 1.0);
    }
    grads[17 * 2 + 1] = 1e200;  // squares to +inf
    opt.offsets.m = 8;
    const VawoResult ref = rdo::oracle::vawo_layer(lq, grads, lut, opt);
    const VawoResult res = detail::vawo_layer(isa(), lq, grads, table, opt);
    EXPECT_FALSE(std::isfinite(ref.total_objective));
    EXPECT_FALSE(std::isfinite(res.total_objective));
    EXPECT_TRUE(same_bytes(ref.ctw, res.ctw));
    EXPECT_TRUE(same_bytes(ref.offsets, res.offsets));
    EXPECT_TRUE(same_bytes(ref.complemented, res.complemented));
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

TEST(VawoParity, TableEngineRejectsNegativeSquaredGradients) {
  // The pruned search relies on every term being >= +0; vawo_layer
  // squares its gradients, so only a direct caller can pass a negative.
  const RLut lut = lut_for(0.5, CellKind::SLC);
  VawoOptions opt;
  const VawoTable table = VawoTable::build(lut, lut.max_weight(),
                                           opt.offsets, opt.penalize_bias);
  int b = 0;
  bool comp = false;
  std::vector<int> ctw;
  EXPECT_THROW(vawo_solve_group({5, 6}, {1.0, -1.0}, table, false, b, comp,
                                ctw),
               ContractViolation);
}

}  // namespace
