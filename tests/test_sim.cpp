// Device-level crossbar executor: the hardware-faithful reference path,
// and its equivalence with the effective-weight fast path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <stdexcept>

#include "sim/crossbar_executor.h"
#include "sim_oracles.h"

using namespace rdo;
using namespace rdo::sim;
using rdo::nn::Rng;

namespace {

quant::LayerQuant make_lq(std::int64_t rows, std::int64_t cols,
                          std::uint64_t seed) {
  quant::LayerQuant lq;
  lq.bits = 8;
  lq.rows = rows;
  lq.cols = cols;
  lq.scale = 0.01f;
  lq.zero = 128;
  Rng rng(seed);
  lq.q.resize(static_cast<std::size_t>(rows * cols));
  for (auto& v : lq.q) v = static_cast<int>(rng.uniform_int(0, 255));
  return lq;
}

ExecutorConfig small_cfg(rram::CellKind kind, double sigma,
                         rram::VariationScope scope, int m = 8,
                         int adc_bits = 0) {
  ExecutorConfig cfg;
  cfg.xbar.rows = 16;
  cfg.xbar.cols = 32;
  cfg.xbar.cell = {kind, 200.0};
  cfg.xbar.variation = {sigma, 0.0, scope};
  cfg.xbar.active_wordlines = 4;
  cfg.xbar.adc_bits = adc_bits;
  cfg.offsets.m = m;
  return cfg;
}

std::vector<double> fast_path(const quant::LayerQuant& lq,
                              const core::VawoResult& assign,
                              const std::vector<double>& crw, int m,
                              int maxw, const std::vector<double>& x) {
  // Effective-weight computation: W_eff = scale * (NRW - zero).
  std::vector<double> y(static_cast<std::size_t>(lq.cols), 0.0);
  for (std::int64_t c = 0; c < lq.cols; ++c) {
    double acc = 0.0;
    for (std::int64_t r = 0; r < lq.rows; ++r) {
      const std::size_t gi =
          static_cast<std::size_t>(core::group_of_row(r, m) * lq.cols + c);
      const double v = crw[static_cast<std::size_t>(r * lq.cols + c)];
      const double b = assign.offsets[gi];
      const double nrw =
          assign.complemented[gi] ? static_cast<double>(maxw) - v - b
                                  : v + b;
      acc += x[static_cast<std::size_t>(r)] * lq.scale * (nrw - lq.zero);
    }
    y[static_cast<std::size_t>(c)] = acc;
  }
  return y;
}

/// Builds the executor and programs every device once from `rng` with
/// the production draw (WeightProgrammer::program_cells, weight by weight
/// in row-major order).
CrossbarLayerExecutor programmed(const quant::LayerQuant& lq,
                                 const core::VawoResult& assign,
                                 const ExecutorConfig& cfg, Rng& rng) {
  CrossbarLayerExecutor exec(lq, assign, cfg);
  const rram::WeightProgrammer prog(cfg.xbar.cell, cfg.weight_bits,
                                    cfg.xbar.variation);
  const auto cpw = static_cast<std::size_t>(prog.cells_per_weight());
  std::vector<double> cells(assign.ctw.size() * cpw);
  for (std::size_t i = 0; i < assign.ctw.size(); ++i) {
    prog.program_cells(assign.ctw[i], rng,
                       std::span<double>(cells).subspan(i * cpw, cpw));
  }
  exec.program_cell_values(cells);
  return exec;
}

/// ISAAC bit-serial forward, the DAC oracle: inputs are quantized to
/// `input_bits` levels over [0, x_max] and streamed one bit per read
/// pass; partial results are shifted-and-added. The whole pipeline is
/// linear in x, so with an ideal ADC this equals forward() on the
/// quantized inputs.
std::vector<double> forward_bit_serial(const CrossbarLayerExecutor& exec,
                                       const std::vector<double>& x,
                                       int input_bits, double x_max) {
  if (input_bits < 1 || input_bits > 16 || !(x_max > 0.0)) {
    throw std::invalid_argument("forward_bit_serial: bad input format");
  }
  const int levels = (1 << input_bits) - 1;
  std::vector<int> xq(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    // The DAC streams unsigned magnitudes; clamping a negative input
    // would corrupt it silently.
    if (x[i] < 0.0) {
      throw std::invalid_argument("forward_bit_serial: negative input");
    }
    const double q = std::round(x[i] / x_max * levels);
    xq[i] = static_cast<int>(std::clamp(q, 0.0, static_cast<double>(levels)));
  }
  std::vector<double> acc(
      static_cast<std::size_t>(exec.tiling().matrix_cols), 0.0);
  std::vector<double> xbit(x.size());
  for (int b = 0; b < input_bits; ++b) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      xbit[i] = static_cast<double>((xq[i] >> b) & 1);
    }
    const std::vector<double> partial = exec.forward(xbit);
    const double weight = static_cast<double>(1 << b);  // shift-and-add
    for (std::size_t c = 0; c < acc.size(); ++c) {
      acc[c] += weight * partial[c];
    }
  }
  const double rescale = x_max / static_cast<double>(levels);
  for (auto& v : acc) v *= rescale;
  return acc;
}

}  // namespace

TEST(Sim, RejectsMisalignedGranularity) {
  const auto lq = make_lq(16, 4, 1);
  const auto assign = core::plain_layer(lq, 6);
  ExecutorConfig cfg = small_cfg(rram::CellKind::MLC2, 0.0,
                                 rram::VariationScope::PerWeight, 6);
  Rng rng(2);
  EXPECT_THROW(programmed(lq, assign, cfg, rng),
               std::invalid_argument);
}

TEST(Sim, IdealDevicesReproduceIntegerMatrixProduct) {
  const auto lq = make_lq(16, 4, 3);
  const auto assign = core::plain_layer(lq, 8);
  ExecutorConfig cfg = small_cfg(rram::CellKind::MLC2, 0.0,
                                 rram::VariationScope::PerWeight);
  Rng rng(4);
  CrossbarLayerExecutor exec = programmed(lq, assign, cfg, rng);
  Rng xr(5);
  std::vector<double> x(16);
  for (auto& v : x) v = xr.uniform(0.0, 1.0);
  const auto y = exec.forward(x);
  for (std::int64_t c = 0; c < 4; ++c) {
    double expect = 0.0, sum_x = 0.0;
    for (std::int64_t r = 0; r < 16; ++r) {
      expect += x[static_cast<std::size_t>(r)] * lq.at(r, c);
      sum_x += x[static_cast<std::size_t>(r)];
    }
    expect = lq.scale * (expect - lq.zero * sum_x);
    EXPECT_NEAR(y[static_cast<std::size_t>(c)], expect, 1e-9);
  }
}

TEST(Sim, MeasuredCrwMatchesCtwOnIdealDevices) {
  const auto lq = make_lq(16, 4, 6);
  const auto assign = core::plain_layer(lq, 8);
  ExecutorConfig cfg = small_cfg(rram::CellKind::SLC, 0.0,
                                 rram::VariationScope::PerWeight);
  cfg.xbar.cols = 64;  // 8 SLC cells per weight, 8 weights per row
  Rng rng(7);
  CrossbarLayerExecutor exec = programmed(lq, assign, cfg, rng);
  const auto crw = exec.measure_crw();
  for (std::size_t i = 0; i < crw.size(); ++i) {
    EXPECT_NEAR(crw[i], static_cast<double>(lq.q[i]), 1e-9);
  }
}

class SimEquivalence
    : public ::testing::TestWithParam<
          std::tuple<rram::CellKind, rram::VariationScope, bool>> {};

TEST_P(SimEquivalence, DeviceLevelForwardEqualsFastPathOnMeasuredCrws) {
  // The key equivalence: the device-level pipeline (group reads, digital
  // Sum+Multi, complement post-processing, ISAAC shift) equals the
  // effective-weight computation on the measured CRWs — with an ideal ADC,
  // exactly.
  const auto [kind, scope, use_vawo] = GetParam();
  const auto lq = make_lq(24, 4, 8);  // 2 row tiles (16 + 8 rows)
  core::VawoResult assign;
  if (use_vawo) {
    rram::WeightProgrammer prog({kind, 200.0}, 8, {0.5, 0.0, scope});
    const rram::RLut lut = rram::RLut::build_analytic(prog);
    std::vector<double> grads(lq.q.size(), 1.0);
    core::VawoOptions vopt;
    vopt.offsets.m = 8;
    vopt.use_complement = true;
    const core::VawoTable table = core::VawoTable::build(
        lut, lq.levels(), vopt.offsets, vopt.penalize_bias);
    assign = core::vawo_layer(lq, grads, table, vopt);
  } else {
    assign = core::plain_layer(lq, 8);
  }
  ExecutorConfig cfg = small_cfg(kind, 0.5, scope);
  if (kind == rram::CellKind::SLC) cfg.xbar.cols = 64;
  Rng rng(9);
  CrossbarLayerExecutor exec = programmed(lq, assign, cfg, rng);
  const auto crw = exec.measure_crw();

  Rng xr(10);
  std::vector<double> x(24);
  for (auto& v : x) v = xr.uniform(0.0, 1.0);
  const auto y_device = exec.forward(x);
  const auto y_fast = fast_path(lq, assign, crw, 8, 255, x);
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(y_device[static_cast<std::size_t>(c)],
                y_fast[static_cast<std::size_t>(c)],
                1e-6 * std::max(1.0, std::fabs(y_fast[static_cast<std::size_t>(c)])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    CellsScopesSchemes, SimEquivalence,
    ::testing::Combine(::testing::Values(rram::CellKind::SLC,
                                         rram::CellKind::MLC2),
                       ::testing::Values(rram::VariationScope::PerWeight,
                                         rram::VariationScope::PerCell),
                       ::testing::Bool()));

TEST(Sim, AdcQuantizationBoundsTheFastPathGap) {
  // With a finite ADC the device-level output deviates from the fast path
  // by at most the accumulated per-group quantization error.
  const auto lq = make_lq(16, 4, 11);
  const auto assign = core::plain_layer(lq, 8);
  ExecutorConfig cfg = small_cfg(rram::CellKind::MLC2, 0.3,
                                 rram::VariationScope::PerWeight, 8,
                                 /*adc_bits=*/8);
  Rng rng(12);
  CrossbarLayerExecutor exec = programmed(lq, assign, cfg, rng);
  const auto crw = exec.measure_crw();
  Rng xr(13);
  std::vector<double> x(16);
  for (auto& v : x) v = xr.uniform(0.0, 1.0);
  const auto y_device = exec.forward(x);
  const auto y_fast = fast_path(lq, assign, crw, 8, 255, x);
  // 4 activation groups per VMM, 4 bit-slice columns with radix up to
  // 4^3: worst-case half-step each, times the dequant scale.
  const double full_scale = 4.0 * 3.0;
  const double step = full_scale / 255.0;
  const double radix_sum = 1 + 4 + 16 + 64;
  const double bound = lq.scale * 4 * 0.5 * step * radix_sum + 1e-9;
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_LE(std::fabs(y_device[static_cast<std::size_t>(c)] -
                        y_fast[static_cast<std::size_t>(c)]),
              bound);
  }
}

TEST(Sim, SetOffsetsChangesOutput) {
  const auto lq = make_lq(16, 2, 14);
  const auto assign = core::plain_layer(lq, 8);
  ExecutorConfig cfg = small_cfg(rram::CellKind::MLC2, 0.0,
                                 rram::VariationScope::PerWeight);
  Rng rng(15);
  CrossbarLayerExecutor exec = programmed(lq, assign, cfg, rng);
  std::vector<double> x(16, 1.0);
  const auto y0 = exec.forward(x);
  std::vector<float> offs(assign.offsets.size(), 5.0f);
  exec.set_offsets(offs);
  const auto y1 = exec.forward(x);
  // b = 5 shared by all groups with sum(x) = 8 per group, 2 groups:
  // integer output rises by 5 * 16; effective by scale * 80.
  EXPECT_NEAR(y1[0] - y0[0], 0.01 * 5 * 16, 1e-6);
}

TEST(Sim, BitSerialEqualsDirectOnQuantizedInputs) {
  // The whole pipeline is linear in x, so streaming input bits and
  // shift-adding the partials reproduces the direct VMM on the quantized
  // inputs exactly (ideal ADC) — ISAAC's compute scheme.
  const auto lq = make_lq(16, 4, 20);
  const auto assign = core::plain_layer(lq, 8);
  ExecutorConfig cfg = small_cfg(rram::CellKind::MLC2, 0.4,
                                 rram::VariationScope::PerWeight);
  Rng rng(21);
  CrossbarLayerExecutor exec = programmed(lq, assign, cfg, rng);
  Rng xr(22);
  std::vector<double> x(16);
  for (auto& v : x) v = xr.uniform(0.0, 1.0);

  const int input_bits = 8;
  const double x_max = 1.0;
  const int levels = (1 << input_bits) - 1;
  std::vector<double> xq(16);
  for (std::size_t i = 0; i < 16; ++i) {
    xq[i] = std::round(x[i] * levels) / levels;
  }
  const auto y_serial = forward_bit_serial(exec, x, input_bits, x_max);
  const auto y_direct = exec.forward(xq);
  for (std::int64_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(y_serial[static_cast<std::size_t>(c)],
                y_direct[static_cast<std::size_t>(c)], 1e-6);
  }
}

TEST(Sim, BitSerialRejectsBadFormat) {
  const auto lq = make_lq(16, 2, 23);
  const auto assign = core::plain_layer(lq, 8);
  ExecutorConfig cfg = small_cfg(rram::CellKind::MLC2, 0.0,
                                 rram::VariationScope::PerWeight);
  Rng rng(24);
  CrossbarLayerExecutor exec = programmed(lq, assign, cfg, rng);
  std::vector<double> x(16, 0.5);
  EXPECT_THROW(forward_bit_serial(exec, x, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(forward_bit_serial(exec, x, 8, 0.0), std::invalid_argument);
}

TEST(Sim, RejectsGroupStraddlingRowTileBoundary) {
  // m = 12 passes the active-wordline check (12 % 4 == 0) but does not
  // divide the 16-row crossbar: the second offset group (rows 12..23)
  // would straddle the tile boundary, splitting one logical offset
  // register across two physical tiles (cf. m = 96 on 128-row crossbars).
  const auto lq = make_lq(32, 4, 25);
  const auto assign = core::plain_layer(lq, 12);
  ExecutorConfig cfg = small_cfg(rram::CellKind::MLC2, 0.0,
                                 rram::VariationScope::PerWeight, 12);
  Rng rng(26);
  EXPECT_THROW(programmed(lq, assign, cfg, rng),
               std::invalid_argument);
}

TEST(Sim, AcceptsWholeTileGroups) {
  // m equal to the tile height (one group per tile column) is legal.
  const auto lq = make_lq(32, 4, 27);
  const auto assign = core::plain_layer(lq, 16);
  ExecutorConfig cfg = small_cfg(rram::CellKind::MLC2, 0.0,
                                 rram::VariationScope::PerWeight, 16);
  Rng rng(28);
  EXPECT_NO_THROW(programmed(lq, assign, cfg, rng));
}

TEST(Sim, BitSerialRejectsNegativeInputs) {
  // The DAC streams unsigned magnitudes; silently clamping a negative
  // activation to 0 would corrupt non-ReLU inputs, so it must throw.
  const auto lq = make_lq(16, 2, 29);
  const auto assign = core::plain_layer(lq, 8);
  ExecutorConfig cfg = small_cfg(rram::CellKind::MLC2, 0.0,
                                 rram::VariationScope::PerWeight);
  Rng rng(30);
  CrossbarLayerExecutor exec = programmed(lq, assign, cfg, rng);
  std::vector<double> x(16, 0.5);
  x[3] = -0.25;
  EXPECT_THROW(forward_bit_serial(exec, x, 8, 1.0), std::invalid_argument);
  x[3] = 0.25;
  EXPECT_NO_THROW(forward_bit_serial(exec, x, 8, 1.0));
}

TEST(Sim, CrossbarCountMatchesTiling) {
  const auto lq = make_lq(40, 10, 16);
  const auto assign = core::plain_layer(lq, 8);
  ExecutorConfig cfg = small_cfg(rram::CellKind::MLC2, 0.0,
                                 rram::VariationScope::PerWeight);
  // 16 rows/tile -> 3 row tiles; 8 weights per tile row -> 2 col tiles.
  Rng rng(17);
  CrossbarLayerExecutor exec = programmed(lq, assign, cfg, rng);
  EXPECT_EQ(exec.crossbar_count(), 6);
}

TEST(Sim, ForwardBatchMatchesPerSampleOracle) {
  // The batched forward (tile, group, sample) reproduces the per-sample
  // loop byte for byte: SLC and MLC2 on 128x128 crossbars with 16 active
  // wordlines, m = 16, 64 and 128, an ideal and a 6-bit ADC, a layer
  // whose 200 rows leave a partial last row tile (and a partial last
  // offset group for m = 64 and 128), nonzero offsets, complemented
  // groups, inputs with exact zeros and an all-zero sample, and batches
  // of 1, 5 and 64 samples.
  const std::int64_t rows = 200, cols = 20;
  const auto lq = make_lq(rows, cols, 40);
  for (rram::CellKind kind : {rram::CellKind::SLC, rram::CellKind::MLC2}) {
    for (int m : {16, 64, 128}) {
      for (int adc_bits : {0, 6}) {
        SCOPED_TRACE(std::string(kind == rram::CellKind::SLC ? "SLC" : "MLC2") +
                     " m = " + std::to_string(m) +
                     " adc = " + std::to_string(adc_bits));
        core::VawoResult assign = core::plain_layer(lq, m);
        Rng pick(41);
        for (auto& flag : assign.complemented) {
          flag = pick.uniform(0.0, 1.0) < 0.4 ? 1 : 0;
        }
        ASSERT_GT(std::count(assign.complemented.begin(),
                             assign.complemented.end(), 1),
                  0);
        ExecutorConfig cfg;
        cfg.xbar.cell = {kind, 200.0};
        cfg.xbar.variation = {0.5, 0.0, rram::VariationScope::PerWeight};
        cfg.xbar.adc_bits = adc_bits;
        cfg.offsets.m = m;
        Rng rng(42);
        CrossbarLayerExecutor exec = programmed(lq, assign, cfg, rng);
        std::vector<float> offsets(assign.offsets.size());
        for (auto& b : offsets) b = static_cast<float>(pick.uniform(-6.0, 6.0));
        exec.set_offsets(offsets);

        for (std::int64_t n : {1, 5, 64}) {
          SCOPED_TRACE("n = " + std::to_string(n));
          Rng xr(43 + static_cast<std::uint64_t>(n));
          std::vector<double> x(static_cast<std::size_t>(n * rows));
          for (auto& v : x) {
            v = xr.uniform(0.0, 1.0) < 0.45 ? 0.0 : xr.uniform(0.0, 2.0);
          }
          if (n > 1) std::fill(x.begin() + rows, x.begin() + 2 * rows, 0.0);
          std::vector<double> y(static_cast<std::size_t>(n * cols));
          exec.forward(x, n, y);
          for (std::int64_t i = 0; i < n; ++i) {
            const std::vector<double> xi(x.begin() + i * rows,
                                         x.begin() + (i + 1) * rows);
            const std::vector<double> want =
                oracle::forward(exec, lq, assign, offsets, cfg, xi);
            EXPECT_EQ(0, std::memcmp(want.data(), y.data() + i * cols,
                                     want.size() * sizeof(double)))
                << "sample " << i;
          }
        }
      }
    }
  }
}

TEST(Sim, ForwardRejectsMismatchedBatchBuffers) {
  const auto lq = make_lq(16, 4, 44);
  const auto assign = core::plain_layer(lq, 8);
  ExecutorConfig cfg = small_cfg(rram::CellKind::MLC2, 0.0,
                                 rram::VariationScope::PerWeight);
  Rng rng(45);
  CrossbarLayerExecutor exec = programmed(lq, assign, cfg, rng);
  std::vector<double> x(3 * 16, 0.5), y(3 * 4);
  EXPECT_NO_THROW(exec.forward(x, 3, y));
  EXPECT_THROW(exec.forward(x, 2, y), std::invalid_argument);
  std::vector<double> short_y(2 * 4);
  EXPECT_THROW(exec.forward(x, 3, short_y), std::invalid_argument);
}
