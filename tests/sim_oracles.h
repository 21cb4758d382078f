// Oracles of the device level: plain loops that the batched kernels
// Crossbar::vmm_rows and CrossbarLayerExecutor::forward must match byte
// for byte (one input at a time, columns outside, rows inside; the layer
// oracle reads the flat cells by index, with no crossbar windows)
// (tests/test_crossbar.cpp, tests/test_sim.cpp), and the per-element
// im2col lowering that the conv lowerings are held to
// (tests/test_im2col.cpp, tests/test_conv_lowering.cpp, tests/test_parity.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/offset.h"
#include "core/vawo.h"
#include "nn/conv_planes.h"
#include "quant/quantizer.h"
#include "rram/crossbar.h"
#include "sim/crossbar_executor.h"

namespace rdo::oracle {

/// Per-element channel-major im2col of one image [c, h, w] for a k x k
/// convolution: row (ch, ky, kx), column oy * ow + ox holds that tap's
/// input pixel at output position (oy, ox), with a bounds test on every
/// element (padding reads +0.0).
inline std::vector<float> im2col(const float* img, std::int64_t c,
                                 std::int64_t h, std::int64_t w,
                                 std::int64_t k, std::int64_t stride,
                                 std::int64_t pad) {
  const std::int64_t oh = nn::conv_out_dim(h, k, stride, pad);
  const std::int64_t ow = nn::conv_out_dim(w, k, stride, pad);
  std::vector<float> cols;
  cols.reserve(static_cast<std::size_t>(c * k * k * oh * ow));
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t ky = 0; ky < k; ++ky) {
      for (std::int64_t kx = 0; kx < k; ++kx) {
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t iy = oy * stride - pad + ky;
            const std::int64_t ix = ox * stride - pad + kx;
            cols.push_back(iy >= 0 && iy < h && ix >= 0 && ix < w
                               ? img[(ch * h + iy) * w + ix]
                               : 0.0f);
          }
        }
      }
    }
  }
  return cols;
}

/// Radix-weighted composition of one weight's per-cell read values (LSB
/// cell first) into its CRW: the sum WeightProgrammer::program_weights
/// forms, in the same order.
inline double compose(const rram::CellModel& cell,
                      std::span<const double> cell_values) {
  double crw = 0.0;
  double radix = 1.0;
  for (double v : cell_values) {
    crw += radix * v;
    radix *= cell.radix();
  }
  return crw;
}

/// Partial VMM of one input over wordlines [r0, r1) of an array of
/// `cfg`'s geometry whose cells are `values` (row-major [cfg.rows x
/// width]): columns outside, rows inside, one activation group at a time.
inline std::vector<double> vmm_rows(const rram::CrossbarConfig& cfg,
                                    std::span<const double> values,
                                    int width, const std::vector<double>& x,
                                    int r0, int r1) {
  std::vector<double> y(static_cast<std::size_t>(width), 0.0);
  for (int g0 = r0; g0 < r1; g0 += cfg.active_wordlines) {
    const int g1 = std::min(r1, g0 + cfg.active_wordlines);
    for (int c = 0; c < width; ++c) {
      double partial = 0.0;
      for (int r = g0; r < g1; ++r) {
        const double xv = x[static_cast<std::size_t>(r)];
        if (xv != 0.0) {
          partial += xv * values[static_cast<std::size_t>(r * width + c)];
        }
      }
      y[static_cast<std::size_t>(c)] += partial;
    }
  }
  return y;
}

/// The batched CrossbarLayerExecutor::forward of the one sample `x` on
/// the programmed state `cells` and `offsets`.
inline std::vector<double> forward_one(const sim::CrossbarLayerExecutor& exec,
                                       std::span<const double> cells,
                                       std::span<const float> offsets,
                                       const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(exec.tiling().matrix_cols));
  exec.forward(cells, offsets, x, 1, y);
  return y;
}

/// Device-level forward of one sample through layer `lq` with the
/// assignment `assign` (its complement flags), the flat programmed cells
/// `cells` ([rows * cols * cells_per_weight], LSB cell first) and the
/// working `offsets`. Reads the cell of (row, column, bit slice) by its
/// flat index, with no crossbar tiling: offset group outside, then
/// column, bit slice and activation group (rows inside), which is the
/// order in which the crossbars add up one bitline of one group.
inline std::vector<double> forward(const quant::LayerQuant& lq,
                                   const core::VawoResult& assign,
                                   std::span<const double> cells,
                                   const std::vector<float>& offsets,
                                   const sim::ExecutorConfig& cfg,
                                   const std::vector<double>& x) {
  const rram::CellModel& cell = cfg.xbar.cell;
  const std::int64_t rows = lq.rows, cols = lq.cols;
  const std::int64_t cpw = lq.bits / cell.bits();
  const std::int64_t m = cfg.offsets.m;
  const std::int64_t active = cfg.xbar.active_wordlines;
  const double maxw = static_cast<double>(lq.levels());
  const auto at = [](std::int64_t i) { return static_cast<std::size_t>(i); };
  std::vector<double> y_int(at(cols), 0.0);
  double sum_x_total = 0.0;
  for (double v : x) sum_x_total += v;
  std::vector<double> bitline(at(cpw));
  for (std::int64_t g0 = 0; g0 < rows; g0 += m) {
    const std::int64_t g1 = std::min(rows, g0 + m);
    const std::int64_t group = core::group_of_row(g0, m);
    double sum_x_g = 0.0;
    for (std::int64_t r = g0; r < g1; ++r) sum_x_g += x[at(r)];
    for (std::int64_t col = 0; col < cols; ++col) {
      for (std::int64_t k = 0; k < cpw; ++k) {
        double read = 0.0;
        for (std::int64_t a0 = g0; a0 < g1; a0 += active) {
          double partial = 0.0;
          for (std::int64_t r = a0; r < std::min(g1, a0 + active); ++r) {
            const double xv = x[at(r)];
            if (xv != 0.0) {
              partial += xv * cells[at((r * cols + col) * cpw + k)];
            }
          }
          read += partial;
        }
        bitline[at(k)] = read;
      }
      const double z = compose(cell, bitline);
      const std::size_t gi = at(group * cols + col);
      const double zc = z + offsets[gi] * sum_x_g;
      y_int[at(col)] += assign.complemented[gi] ? maxw * sum_x_g - zc : zc;
    }
  }
  std::vector<double> y(at(cols));
  for (std::int64_t c = 0; c < cols; ++c) {
    y[at(c)] = lq.scale * (y_int[at(c)] -
                           static_cast<double>(lq.zero) * sum_x_total);
  }
  return y;
}

}  // namespace rdo::oracle
