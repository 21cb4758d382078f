// Device-level crossbar simulation: VMM, equivalence with the
// composed-CRW fast path used by the deployment pipeline. Arrays are
// programmed through program_values() with the production draw
// (WeightProgrammer::program_weights).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>

#include "rram/crossbar.h"
#include "rram/programmer.h"
#include "sim_oracles.h"

using namespace rdo::rram;
using rdo::nn::Rng;

namespace {

CrossbarConfig small_cfg(CellKind kind = CellKind::SLC, int rows = 16,
                         int cols = 16, int active = 4) {
  CrossbarConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.cell = {kind, 200.0};
  cfg.active_wordlines = active;
  return cfg;
}

const VariationModel kIdeal{0.0, 0.0};

/// Programs every cell of `xb` from row-major `states` (size rows*cols)
/// with the production draw: WeightProgrammer::program_weights of
/// one-cell weights, so cell i holds state states[i] under `variation`
/// (sigma 0 reads each state's ideal value).
void program_states(Crossbar& xb, const std::vector<int>& states,
                    const VariationModel& variation, Rng& rng) {
  const CellModel& cell = xb.config().cell;
  const WeightProgrammer prog(cell, cell.bits(), variation);
  std::vector<double> crw(states.size());
  prog.program_weights(states, rng, xb.program_values(), crw);
}

/// One input read over every wordline: the n = 1 call of vmm_rows.
std::vector<double> vmm(const Crossbar& xb, const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(xb.config().cols));
  xb.vmm_rows(x, 1, 0, xb.config().rows, y);
  return y;
}

}  // namespace

TEST(Crossbar, RejectsBadGeometry) {
  CrossbarConfig cfg = small_cfg();
  cfg.active_wordlines = 0;
  EXPECT_THROW(Crossbar{cfg}, std::invalid_argument);
  cfg = small_cfg();
  cfg.active_wordlines = 17;
  EXPECT_THROW(Crossbar{cfg}, std::invalid_argument);
}

TEST(Crossbar, IdealProgramReadsExactStates) {
  CrossbarConfig cfg = small_cfg(CellKind::MLC2);
  Crossbar xb(cfg);
  std::vector<int> states(16 * 16);
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = static_cast<int>(i % 4);
  }
  Rng rng(1);
  program_states(xb, states, kIdeal, rng);
  EXPECT_DOUBLE_EQ(xb.values()[1], 1.0);  // row 0, column 1
  EXPECT_DOUBLE_EQ(xb.values()[3], 3.0);
}

TEST(Crossbar, IdealVmmEqualsIntegerMatrixProduct) {
  CrossbarConfig cfg = small_cfg(CellKind::MLC2);
  Crossbar xb(cfg);
  Rng rng(2);
  std::vector<int> states(16 * 16);
  for (auto& s : states) s = static_cast<int>(rng.uniform_int(0, 3));
  program_states(xb, states, kIdeal, rng);
  std::vector<double> x(16);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  const auto y = vmm(xb, x);
  for (int c = 0; c < 16; ++c) {
    double expect = 0.0;
    for (int r = 0; r < 16; ++r) {
      expect += x[static_cast<std::size_t>(r)] *
                states[static_cast<std::size_t>(r * 16 + c)];
    }
    EXPECT_NEAR(y[static_cast<std::size_t>(c)], expect, 1e-9);
  }
}

TEST(Crossbar, VmmInvariantToActivationGrouping) {
  // The group-by-group readout must equal the full sum, regardless of how
  // many wordlines are active per cycle.
  CrossbarConfig cfg = small_cfg(CellKind::SLC);
  Crossbar xb(cfg);
  Rng rng(3);
  std::vector<int> states(16 * 16);
  for (auto& s : states) s = static_cast<int>(rng.uniform_int(0, 1));
  program_states(xb, states, {0.7, 0.0}, rng);
  std::vector<double> x(16);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);

  // The same drawn cells read with all 16 wordlines in one cycle.
  CrossbarConfig cfg16 = cfg;
  cfg16.active_wordlines = 16;
  Crossbar xb16(cfg16);
  const std::span<double> cells = xb.program_values();
  std::copy(cells.begin(), cells.end(), xb16.program_values().begin());

  const auto y4 = vmm(xb, x);
  const auto y16 = vmm(xb16, x);
  for (int c = 0; c < 16; ++c) {
    double expect = 0.0;
    for (int r = 0; r < 16; ++r) {
      expect += x[static_cast<std::size_t>(r)] *
                xb.values()[static_cast<std::size_t>(r * 16 + c)];
    }
    EXPECT_NEAR(y4[static_cast<std::size_t>(c)], expect, 1e-9);
    EXPECT_NEAR(y16[static_cast<std::size_t>(c)], expect, 1e-9);
  }
}

TEST(Crossbar, VmmRejectsWrongInputLength) {
  Crossbar xb(small_cfg());
  std::vector<double> x(5, 1.0);
  EXPECT_THROW(vmm(xb, x), std::invalid_argument);
}

TEST(Crossbar, EquivalenceWithComposedCrwPath) {
  // The deployment pipeline composes CRWs via WeightProgrammer instead of
  // reading every cell through a Crossbar. Verify the two paths agree: a
  // weight's drawn cells, sliced across columns and read by the crossbar,
  // radix-recombined, equal the CRW program_weights composed from them.
  const CellModel cell{CellKind::MLC2, 200.0};
  WeightProgrammer prog(cell, 8, {0.5, 0.0, VariationScope::PerCell});
  Crossbar xb(small_cfg(CellKind::MLC2, 4, 4, 4));
  const int v = 0xA7;
  std::vector<double> cells(4);
  double crw = 0.0;
  Rng rng(9);
  prog.program_weights({&v, 1}, rng, cells, {&crw, 1});
  // Row 0 holds the weight's four cells, LSB first.
  std::copy(cells.begin(), cells.end(), xb.program_values().begin());
  // Read them back with a one-hot input on row 0.
  std::vector<double> x(4, 0.0);
  x[0] = 1.0;
  const auto y = vmm(xb, x);
  double recombined = 0.0, radix = 1.0;
  for (int k = 0; k < 4; ++k) {
    recombined += radix * y[static_cast<std::size_t>(k)];
    radix *= 4.0;
  }
  EXPECT_NEAR(crw, recombined, 1e-9);
}

TEST(Crossbar, BatchedVmmMatchesPerSampleOracle) {
  // The batched kernel (group, sample, row, column tile) reproduces the
  // per-sample column-outer loop byte for byte: batches of 1, 3 and 64,
  // all-zero, partly zero and negative inputs, row ranges with an
  // unaligned end, and column counts below, at and past the kernel's
  // column tile.
  for (int cols : {5, 16, 37, 128}) {
    Crossbar xb(small_cfg(CellKind::MLC2, 40, cols, 8));
    Rng rng(50 + static_cast<std::uint64_t>(cols));
    std::vector<int> states(static_cast<std::size_t>(40 * cols));
    for (auto& s : states) s = static_cast<int>(rng.uniform_int(0, 3));
    program_states(xb, states, {0.5, 0.0}, rng);
    for (int n : {1, 3, 64}) {
      std::vector<double> x(static_cast<std::size_t>(n * 40));
      for (auto& v : x) {
        const double u = rng.uniform(0.0, 1.0);
        v = u < 0.4 ? 0.0 : u < 0.5 ? -rng.uniform(0.0, 1.0)
                                    : rng.uniform(0.0, 3.0);
      }
      // The last sample is all zero.
      std::fill(x.end() - 40, x.end(), 0.0);
      for (const auto& [r0, r1] :
           {std::pair{0, 40}, std::pair{8, 29}, std::pair{16, 17},
            std::pair{24, 24}}) {
        SCOPED_TRACE("cols " + std::to_string(cols) + " n " +
                     std::to_string(n) + " rows [" + std::to_string(r0) +
                     ", " + std::to_string(r1) + ")");
        std::vector<double> y(static_cast<std::size_t>(n * cols), -1.0);
        xb.vmm_rows(x, n, r0, r1, y);
        for (int i = 0; i < n; ++i) {
          const std::vector<double> xi(x.begin() + i * 40,
                                       x.begin() + (i + 1) * 40);
          const std::vector<double> want =
              rdo::oracle::vmm_rows(xb, xi, r0, r1);
          EXPECT_EQ(0, std::memcmp(want.data(), y.data() + i * cols,
                                   want.size() * sizeof(double)))
              << "sample " << i;
        }
      }
    }
  }
}

TEST(Crossbar, BatchedVmmRejectsMismatchedBuffers) {
  Crossbar xb(small_cfg());
  std::vector<double> x(2 * 16, 1.0), y(2 * 16);
  EXPECT_NO_THROW(xb.vmm_rows(x, 2, 0, 16, y));
  EXPECT_THROW(xb.vmm_rows(x, 3, 0, 16, y), std::invalid_argument);
  std::vector<double> short_y(16);
  EXPECT_THROW(xb.vmm_rows(x, 2, 0, 16, short_y), std::invalid_argument);
  EXPECT_THROW(xb.vmm_rows(x, 2, 2, 16, y), std::invalid_argument);
}
