// Oracles of the device level: plain loops that the batched kernels
// Crossbar::vmm_rows and CrossbarLayerExecutor::forward must match byte
// for byte (one input at a time, columns outside, rows inside), the CRW
// readback of programmed crossbars, which the device level itself never
// needs (tests/test_crossbar.cpp, tests/test_sim.cpp), and the
// per-element im2col lowering that the conv lowerings are held to
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
#include "rram/programmer.h"
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

/// Partial VMM of one input over wordlines [r0, r1): columns outside,
/// rows inside, one activation group at a time.
inline std::vector<double> vmm_rows(const rram::Crossbar& xb,
                                    const std::vector<double>& x, int r0,
                                    int r1) {
  const rram::CrossbarConfig& cfg = xb.config();
  const std::span<const double> values = xb.values();
  std::vector<double> y(static_cast<std::size_t>(cfg.cols), 0.0);
  for (int g0 = r0; g0 < r1; g0 += cfg.active_wordlines) {
    const int g1 = std::min(r1, g0 + cfg.active_wordlines);
    for (int c = 0; c < cfg.cols; ++c) {
      double partial = 0.0;
      for (int r = g0; r < g1; ++r) {
        const double xv = x[static_cast<std::size_t>(r)];
        if (xv != 0.0) {
          partial += xv * values[static_cast<std::size_t>(r * cfg.cols + c)];
        }
      }
      y[static_cast<std::size_t>(c)] += partial;
    }
  }
  return y;
}

/// The batched CrossbarLayerExecutor::forward of the one sample `x`.
inline std::vector<double> forward_one(const sim::CrossbarLayerExecutor& exec,
                                       const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(exec.tiling().matrix_cols));
  exec.forward(x, 1, y);
  return y;
}

/// One read of every device of `exec`: the composed CRW of each weight
/// (row-major [rows * cols]), from the cells that program_cell_values()
/// laid out.
inline std::vector<double> measure_crw(const sim::CrossbarLayerExecutor& exec) {
  const rram::TilingInfo& tiling = exec.tiling();
  const rram::CrossbarConfig& xcfg = exec.crossbar(0, 0).config();
  const int cpw = tiling.cells_per_weight;
  const std::int64_t wpr = xcfg.cols / cpw;
  std::vector<double> crw(
      static_cast<std::size_t>(tiling.matrix_rows * tiling.matrix_cols));
  for (std::int64_t r = 0; r < tiling.matrix_rows; ++r) {
    for (std::int64_t c = 0; c < tiling.matrix_cols; ++c) {
      const std::span<const double> values =
          exec.crossbar(r / xcfg.rows, c / wpr).values();
      const std::int64_t first =
          (r % xcfg.rows) * xcfg.cols + (c % wpr) * cpw;
      crw[static_cast<std::size_t>(r * tiling.matrix_cols + c)] = compose(
          xcfg.cell, values.subspan(static_cast<std::size_t>(first),
                                    static_cast<std::size_t>(cpw)));
    }
  }
  return crw;
}

/// Device-level forward of one sample through `exec`, which holds `lq`
/// with the assignment `assign` (its complement flags) and the working
/// `offsets`: row tile, offset group, column tile, each crossbar read
/// through the per-sample vmm_rows above.
inline std::vector<double> forward(const sim::CrossbarLayerExecutor& exec,
                                   const quant::LayerQuant& lq,
                                   const core::VawoResult& assign,
                                   const std::vector<float>& offsets,
                                   const sim::ExecutorConfig& cfg,
                                   const std::vector<double>& x) {
  const rram::WeightProgrammer prog(cfg.xbar.cell, lq.bits, {});
  const rram::TilingInfo& tiling = exec.tiling();
  const std::int64_t cols = lq.cols;
  const int cpw = prog.cells_per_weight();
  const std::int64_t wpr = cfg.xbar.cols / cpw;
  const double maxw = static_cast<double>(prog.max_weight());
  std::vector<double> y_int(static_cast<std::size_t>(cols), 0.0);
  double sum_x_total = 0.0;
  for (double v : x) sum_x_total += v;
  std::vector<double> x_slice(static_cast<std::size_t>(cfg.xbar.rows));
  for (std::int64_t tr = 0; tr < tiling.row_tiles; ++tr) {
    const std::int64_t row_base = tr * cfg.xbar.rows;
    const std::int64_t rows_here =
        std::min<std::int64_t>(cfg.xbar.rows, lq.rows - row_base);
    std::fill(x_slice.begin(), x_slice.end(), 0.0);
    for (std::int64_t r = 0; r < rows_here; ++r) {
      x_slice[static_cast<std::size_t>(r)] =
          x[static_cast<std::size_t>(row_base + r)];
    }
    for (std::int64_t g0 = 0; g0 < rows_here; g0 += cfg.offsets.m) {
      const std::int64_t g1 =
          std::min<std::int64_t>(rows_here, g0 + cfg.offsets.m);
      const std::int64_t group =
          core::group_of_row(row_base + g0, cfg.offsets.m);
      double sum_x_g = 0.0;
      for (std::int64_t r = g0; r < g1; ++r) {
        sum_x_g += x_slice[static_cast<std::size_t>(r)];
      }
      for (std::int64_t tc = 0; tc < tiling.col_tiles; ++tc) {
        const std::vector<double> cell_sums =
            vmm_rows(exec.crossbar(tr, tc), x_slice, static_cast<int>(g0),
                     static_cast<int>(g1));
        for (std::int64_t wc = 0; wc < wpr; ++wc) {
          const std::int64_t col = tc * wpr + wc;
          if (col >= cols) break;
          const double z = compose(
              cfg.xbar.cell,
              std::span(cell_sums).subspan(static_cast<std::size_t>(wc * cpw),
                                           static_cast<std::size_t>(cpw)));
          const std::size_t gi = static_cast<std::size_t>(group * cols + col);
          const double zc = z + offsets[gi] * sum_x_g;
          y_int[static_cast<std::size_t>(col)] +=
              assign.complemented[gi] ? maxw * sum_x_g - zc : zc;
        }
      }
    }
  }
  std::vector<double> y(static_cast<std::size_t>(cols));
  for (std::int64_t c = 0; c < cols; ++c) {
    y[static_cast<std::size_t>(c)] =
        lq.scale * (y_int[static_cast<std::size_t>(c)] -
                    static_cast<double>(lq.zero) * sum_x_total);
  }
  return y;
}

}  // namespace rdo::oracle
