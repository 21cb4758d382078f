// Device-level crossbar simulation: VMM, equivalence with the
// composed-CRW fast path used by the deployment pipeline. An array reads
// cells that the test holds, drawn with the production draw
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

/// Cells for row-major `states` with the production draw:
/// WeightProgrammer::program_weights of one-cell weights, so cell i holds
/// state states[i] under `variation` (sigma 0 reads each state's ideal
/// value).
std::vector<double> program_states(const CellModel& cell,
                                   const std::vector<int>& states,
                                   const VariationModel& variation,
                                   Rng& rng) {
  const WeightProgrammer prog(cell, cell.bits(), variation);
  std::vector<double> cells(states.size());
  std::vector<double> crw(states.size());
  prog.program_weights(states, rng, cells, crw);
  return cells;
}

/// The whole array over row-major `cells`.
CellWindow whole(const Crossbar& xb, const std::vector<double>& cells) {
  const auto cols = static_cast<std::size_t>(xb.config().cols);
  return {cells.data(), cols, xb.config().cols};
}

/// One input read over every wordline: the n = 1 call of vmm_rows.
std::vector<double> vmm(const Crossbar& xb, const std::vector<double>& cells,
                        const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(xb.config().cols));
  xb.vmm_rows(whole(xb, cells), x, 1, 0, xb.config().rows, y);
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
  const std::vector<double> cells =
      program_states(cfg.cell, states, kIdeal, rng);
  std::vector<double> x(16, 0.0);
  x[0] = 1.0;  // read row 0 alone
  const auto y = vmm(xb, cells, x);
  EXPECT_DOUBLE_EQ(y[1], 1.0);  // row 0, column 1
  EXPECT_DOUBLE_EQ(y[3], 3.0);
}

TEST(Crossbar, IdealVmmEqualsIntegerMatrixProduct) {
  CrossbarConfig cfg = small_cfg(CellKind::MLC2);
  Crossbar xb(cfg);
  Rng rng(2);
  std::vector<int> states(16 * 16);
  for (auto& s : states) s = static_cast<int>(rng.uniform_int(0, 3));
  const std::vector<double> cells =
      program_states(cfg.cell, states, kIdeal, rng);
  std::vector<double> x(16);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  const auto y = vmm(xb, cells, x);
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
  const std::vector<double> cells =
      program_states(cfg.cell, states, {0.7, 0.0}, rng);
  std::vector<double> x(16);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);

  // The same drawn cells read with all 16 wordlines in one cycle.
  CrossbarConfig cfg16 = cfg;
  cfg16.active_wordlines = 16;
  Crossbar xb16(cfg16);

  const auto y4 = vmm(xb, cells, x);
  const auto y16 = vmm(xb16, cells, x);
  for (int c = 0; c < 16; ++c) {
    double expect = 0.0;
    for (int r = 0; r < 16; ++r) {
      expect += x[static_cast<std::size_t>(r)] *
                cells[static_cast<std::size_t>(r * 16 + c)];
    }
    EXPECT_NEAR(y4[static_cast<std::size_t>(c)], expect, 1e-9);
    EXPECT_NEAR(y16[static_cast<std::size_t>(c)], expect, 1e-9);
  }
}

TEST(Crossbar, VmmRejectsWrongInputLength) {
  Crossbar xb(small_cfg());
  const std::vector<double> cells(16 * 16, 1.0);
  std::vector<double> x(5, 1.0);
  EXPECT_THROW(vmm(xb, cells, x), std::invalid_argument);
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
  std::vector<double> array(4 * 4, 0.0);
  std::copy(cells.begin(), cells.end(), array.begin());
  // Read them back with a one-hot input on row 0.
  std::vector<double> x(4, 0.0);
  x[0] = 1.0;
  const auto y = vmm(xb, array, x);
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
  // unaligned end, and windows below, at and past the kernel's column
  // tile, read from a wider buffer (row stride width + 3, first column 2)
  // on a 128-column array.
  const Crossbar xb(small_cfg(CellKind::MLC2, 40, 128, 8));
  for (int width : {5, 16, 37, 128}) {
    Rng rng(50 + static_cast<std::uint64_t>(width));
    std::vector<int> states(static_cast<std::size_t>(40 * width));
    for (auto& s : states) s = static_cast<int>(rng.uniform_int(0, 3));
    const std::vector<double> cells =
        program_states(xb.config().cell, states, {0.5, 0.0}, rng);
    const auto stride = static_cast<std::size_t>(width + 3);
    std::vector<double> buffer(40 * stride, -7.0);
    for (std::size_t r = 0; r < 40; ++r) {
      std::copy(cells.begin() + static_cast<std::ptrdiff_t>(r) * width,
                cells.begin() + static_cast<std::ptrdiff_t>(r + 1) * width,
                buffer.begin() + static_cast<std::ptrdiff_t>(r * stride + 2));
    }
    const CellWindow window{buffer.data() + 2, stride, width};
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
        SCOPED_TRACE("width " + std::to_string(width) + " n " +
                     std::to_string(n) + " rows [" + std::to_string(r0) +
                     ", " + std::to_string(r1) + ")");
        std::vector<double> y(static_cast<std::size_t>(n * width), -1.0);
        xb.vmm_rows(window, x, n, r0, r1, y);
        for (int i = 0; i < n; ++i) {
          const std::vector<double> xi(x.begin() + i * 40,
                                       x.begin() + (i + 1) * 40);
          const std::vector<double> want =
              rdo::oracle::vmm_rows(xb.config(), cells, width, xi, r0, r1);
          EXPECT_EQ(0, std::memcmp(want.data(), y.data() + i * width,
                                   want.size() * sizeof(double)))
              << "sample " << i;
        }
      }
    }
  }
}

TEST(Crossbar, BatchedVmmRejectsMismatchedBuffers) {
  Crossbar xb(small_cfg());
  const std::vector<double> cells(16 * 16, 1.0);
  const CellWindow g = whole(xb, cells);
  std::vector<double> x(2 * 16, 1.0), y(2 * 16);
  EXPECT_NO_THROW(xb.vmm_rows(g, x, 2, 0, 16, y));
  EXPECT_THROW(xb.vmm_rows(g, x, 3, 0, 16, y), std::invalid_argument);
  std::vector<double> short_y(16);
  EXPECT_THROW(xb.vmm_rows(g, x, 2, 0, 16, short_y), std::invalid_argument);
  EXPECT_THROW(xb.vmm_rows(g, x, 2, 2, 16, y), std::invalid_argument);
  // A window wider than the array, an empty or null one, and one whose
  // rows overlap.
  std::vector<double> wide_y(2 * 17);
  EXPECT_THROW(xb.vmm_rows({cells.data(), 17, 17}, x, 2, 0, 15, wide_y),
               std::invalid_argument);
  EXPECT_THROW(xb.vmm_rows({cells.data(), 16, 0}, x, 2, 0, 16, {}),
               std::invalid_argument);
  std::vector<double> narrow_y(2 * 8);
  EXPECT_THROW(xb.vmm_rows({cells.data(), 4, 8}, x, 2, 0, 16, narrow_y),
               std::invalid_argument);
  EXPECT_THROW(xb.vmm_rows({nullptr, 16, 16}, x, 2, 0, 16, y),
               std::invalid_argument);
}
