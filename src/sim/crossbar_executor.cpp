#include "sim/crossbar_executor.h"

#include <algorithm>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/offset.h"
#include "obs/trace.h"

namespace rdo::sim {

using rdo::core::group_of_row;

CrossbarLayerExecutor::CrossbarLayerExecutor(
    const rdo::quant::LayerQuant& lq, const rdo::core::VawoResult& assign,
    const ExecutorConfig& cfg)
    : lq_{lq.bits, lq.scale, lq.zero, lq.rows, lq.cols, {}},
      complemented_(assign.complemented),
      cfg_(cfg),
      xbar_(cfg.xbar) {
  RDO_CHECK(lq_.bits > 0 && lq_.bits <= 30 &&
                lq_.bits % cfg_.xbar.cell.bits() == 0,
            "CrossbarLayerExecutor: " + std::to_string(lq_.bits) +
                " weight bits do not split into " +
                std::to_string(cfg_.xbar.cell.bits()) + "-bit cells");
  cells_per_weight_ = lq_.bits / cfg_.xbar.cell.bits();
  RDO_CHECK(cfg_.offsets.m % cfg_.xbar.active_wordlines == 0,
            "CrossbarLayerExecutor: m must be a multiple of the activated "
            "wordlines (paper Sec. III-A)");
  // A value like m = 96 on 128-row crossbars would let one offset
  // group straddle a row-tile boundary, splitting a single logical
  // offset register across two physical tiles — the forward pass would
  // then apply one tile's group offset to rows belonging to the next
  // group (violates the Sec. III-A geometry, src/core/offset.h).
  RDO_CHECK(cfg_.xbar.rows % cfg_.offsets.m == 0,
            "CrossbarLayerExecutor: crossbar rows must be a multiple of m "
            "so offset groups never straddle a row-tile boundary (paper "
            "Sec. III-A)");
  RDO_CHECK(assign.ctw.size() == lq.q.size(),
            "CrossbarLayerExecutor: " + std::to_string(assign.ctw.size()) +
                " assigned CTWs for " + std::to_string(lq.q.size()) +
                " quantized weights");
  for (int v : assign.ctw) {
    RDO_CHECK(v >= 0 && v <= lq_.levels(),
              "CrossbarLayerExecutor: CTW " + std::to_string(v) +
                  " outside [0, " + std::to_string(lq_.levels()) + "]");
  }
  tiling_ = rdo::rram::compute_tiling(lq_.rows, lq_.cols, cfg_.xbar.rows,
                                      cfg_.xbar.cols, cells_per_weight_);
  rdo::obs::TraceSpan span("sim:build_layer", "sim");
  span.arg("rows", lq_.rows);
  span.arg("cols", lq_.cols);
  span.arg("m", cfg_.offsets.m);
  span.arg("groups", assign.groups_per_col);
  span.arg("row_tiles", tiling_.row_tiles);
  span.arg("col_tiles", tiling_.col_tiles);
}

void CrossbarLayerExecutor::forward(std::span<const double> cells,
                                    std::span<const float> offsets,
                                    std::span<const double> x,
                                    std::int64_t n,
                                    std::span<double> y) const {
  const std::int64_t rows = lq_.rows;
  const std::int64_t cols = lq_.cols;
  const int cpw = cells_per_weight_;
  RDO_CHECK(static_cast<std::int64_t>(cells.size()) == rows * cols * cpw,
            "CrossbarLayerExecutor::forward: " +
                std::to_string(cells.size()) + " cell values for " +
                std::to_string(rows * cols) + " weights of " +
                std::to_string(cpw) + " cells");
  RDO_CHECK(offsets.size() == complemented_.size(),
            "CrossbarLayerExecutor::forward: " +
                std::to_string(offsets.size()) + " offsets for " +
                std::to_string(complemented_.size()) + " registers");
  RDO_CHECK(n >= 0 && static_cast<std::int64_t>(x.size()) == n * rows,
            "CrossbarLayerExecutor::forward: input length " +
                std::to_string(x.size()) + " for " + std::to_string(n) +
                " x " + std::to_string(rows) + " rows");
  RDO_CHECK(static_cast<std::int64_t>(y.size()) == n * cols,
            "CrossbarLayerExecutor::forward: output length " +
                std::to_string(y.size()) + " for " + std::to_string(n) +
                " x " + std::to_string(cols) + " columns");
  const std::int64_t wpr = cfg_.xbar.cols / cpw;
  const std::int64_t xrows = cfg_.xbar.rows;
  const auto stride = static_cast<std::size_t>(cols * cpw);
  const double maxw = static_cast<double>(lq_.levels());
  const auto at = [](std::int64_t i) { return static_cast<std::size_t>(i); };
  std::vector<double> y_int(at(n * cols), 0.0);
  // One row tile of every sample (wordlines past the layer read 0), the
  // digital Sum unit of one offset group per sample, and one crossbar's
  // bitline sums per sample; all reused across the batch.
  std::vector<double> x_slice(at(n * xrows), 0.0);
  std::vector<double> sum_x_g(at(n));
  std::vector<double> cell_sums(at(n * wpr * cpw));
  for (std::int64_t tr = 0; tr < tiling_.row_tiles; ++tr) {
    const std::int64_t row_base = tr * xrows;
    const std::int64_t rows_here = std::min(xrows, rows - row_base);
    for (std::int64_t s = 0; s < n; ++s) {
      const double* src = x.data() + s * rows + row_base;
      double* dst = x_slice.data() + s * xrows;
      std::copy(src, src + rows_here, dst);
      std::fill(dst + rows_here, dst + xrows, 0.0);
    }
    // One digital offset group = m consecutive wordlines of one column.
    for (std::int64_t g0 = 0; g0 < rows_here; g0 += cfg_.offsets.m) {
      const std::int64_t g1 = std::min(rows_here, g0 + cfg_.offsets.m);
      const std::int64_t group = group_of_row(row_base + g0, cfg_.offsets.m);
      for (std::int64_t s = 0; s < n; ++s) {
        double sum = 0.0;  // the digital Sum unit
        for (std::int64_t r = g0; r < g1; ++r) {
          sum += x_slice[at(s * xrows + r)];
        }
        sum_x_g[at(s)] = sum;
      }
      for (std::int64_t tc = 0; tc < tiling_.col_tiles; ++tc) {
        // Array (tr, tc): the weights of columns tc * wpr.. of rows
        // row_base.., each cpw cells wide, read in place.
        const std::int64_t col0 = tc * wpr;
        const std::int64_t width = std::min(wpr, cols - col0) * cpw;
        const rdo::rram::CellWindow window{
            cells.data() + at(row_base) * stride + at(col0 * cpw), stride,
            static_cast<int>(width)};
        const std::span<double> sums(cell_sums.data(), at(n * width));
        xbar_.vmm_rows(window, x_slice, n, static_cast<int>(g0),
                       static_cast<int>(g1), sums);
        for (std::int64_t s = 0; s < n; ++s) {
          const double* cs = sums.data() + s * width;
          double* yi = y_int.data() + s * cols;
          const double sx = sum_x_g[at(s)];
          for (std::int64_t wc = 0; wc * cpw < width; ++wc) {
            const std::int64_t col = col0 + wc;
            // Shift-and-add across the weight's bit-slice columns.
            double z = 0.0;
            double radix = 1.0;
            for (int k = 0; k < cpw; ++k) {
              z += radix * cs[wc * cpw + k];
              radix *= cfg_.xbar.cell.radix();
            }
            const std::size_t gi = at(group * cols + col);
            // Digital offset unit: + b * sum(x)  (Eq. 1).
            const double zc = z + offsets[gi] * sx;
            // Complement post-processing (Sec. III-C).
            yi[col] += complemented_[gi] ? maxw * sx - zc : zc;
          }
        }
      }
    }
  }
  // ISAAC weight shift + dequantization.
  for (std::int64_t s = 0; s < n; ++s) {
    double sum_x_total = 0.0;
    for (std::int64_t r = 0; r < rows; ++r) sum_x_total += x[at(s * rows + r)];
    for (std::int64_t c = 0; c < cols; ++c) {
      y[at(s * cols + c)] =
          lq_.scale * (y_int[at(s * cols + c)] -
                       static_cast<double>(lq_.zero) * sum_x_total);
    }
  }
}

}  // namespace rdo::sim
