#include "sim/crossbar_executor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/check.h"
#include "core/offset.h"
#include "obs/trace.h"

namespace rdo::sim {

using rdo::core::group_of_row;
using rdo::rram::Crossbar;

CrossbarLayerExecutor::CrossbarLayerExecutor(
    const rdo::quant::LayerQuant& lq, const rdo::core::VawoResult& assign,
    const ExecutorConfig& cfg)
    : lq_(lq),
      assign_(assign),
      cfg_(cfg),
      prog_(cfg.xbar.cell, cfg.weight_bits, cfg.xbar.variation),
      offsets_(assign.offsets) {
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
  RDO_CHECK(assign_.ctw.size() == lq_.q.size(),
            "CrossbarLayerExecutor: " + std::to_string(assign_.ctw.size()) +
                " assigned CTWs for " + std::to_string(lq_.q.size()) +
                " quantized weights");
  for (int v : assign_.ctw) {
    RDO_CHECK(v >= 0 && v <= prog_.max_weight(),
              "CrossbarLayerExecutor: CTW " + std::to_string(v) +
                  " outside [0, " + std::to_string(prog_.max_weight()) + "]");
  }
  tiling_ = rdo::rram::compute_tiling(lq_.rows, lq_.cols, cfg_.xbar.rows,
                                      cfg_.xbar.cols,
                                      prog_.cells_per_weight());
  rdo::obs::TraceSpan span("sim:build_layer", "sim");
  span.arg("rows", lq_.rows);
  span.arg("cols", lq_.cols);
  span.arg("m", cfg_.offsets.m);
  span.arg("groups", assign_.groups_per_col);
  span.arg("row_tiles", tiling_.row_tiles);
  span.arg("col_tiles", tiling_.col_tiles);
  xbars_.assign(static_cast<std::size_t>(tiling_.row_tiles *
                                         tiling_.col_tiles),
                Crossbar(cfg_.xbar));
}

void CrossbarLayerExecutor::program_cell_values(
    std::span<const double> cells) {
  const int cpw = prog_.cells_per_weight();
  RDO_CHECK(cells.size() == lq_.q.size() * static_cast<std::size_t>(cpw),
            "program_cell_values: " + std::to_string(cells.size()) +
                " cell values for " + std::to_string(lq_.q.size()) +
                " weights of " + std::to_string(cpw) + " cells");
  const std::int64_t wpr = cfg_.xbar.cols / cpw;
  rdo::quant::LayerQuant ctw_view = lq_;
  ctw_view.q = assign_.ctw;
  // Padding cells (beyond the layer's rows/cols) read as an ideally
  // programmed HRS device.
  const double pad = cfg_.xbar.cell.read_value(0, 1.0);
  for (std::int64_t tr = 0; tr < tiling_.row_tiles; ++tr) {
    for (std::int64_t tc = 0; tc < tiling_.col_tiles; ++tc) {
      rdo::obs::TraceSpan tile_span("sim:program_tile", "sim");
      tile_span.arg("tr", tr);
      tile_span.arg("tc", tc);
      std::vector<int> states =
          rdo::rram::tile_states(ctw_view, prog_, cfg_.xbar, tr, tc);
      std::vector<double> values(states.size(), pad);
      for (std::int64_t r = 0; r < cfg_.xbar.rows; ++r) {
        const std::int64_t mr = tr * cfg_.xbar.rows + r;
        if (mr >= lq_.rows) break;
        for (std::int64_t wc = 0; wc < wpr; ++wc) {
          const std::int64_t mc = tc * wpr + wc;
          if (mc >= lq_.cols) break;
          const std::span<const double> cv = cells.subspan(
              static_cast<std::size_t>((mr * lq_.cols + mc) * cpw),
              static_cast<std::size_t>(cpw));
          std::copy(cv.begin(), cv.end(),
                    values.begin() + r * cfg_.xbar.cols + wc * cpw);
        }
      }
      xbars_[static_cast<std::size_t>(tr * tiling_.col_tiles + tc)]
          .program_values(std::move(states), std::move(values));
    }
  }
}

void CrossbarLayerExecutor::set_offsets(std::vector<float> offsets) {
  RDO_CHECK(offsets.size() == offsets_.size(),
            "set_offsets: " + std::to_string(offsets.size()) +
                " offsets for " + std::to_string(offsets_.size()) +
                " registers");
  offsets_ = std::move(offsets);
}

std::vector<double> CrossbarLayerExecutor::forward(
    const std::vector<double>& x) const {
  RDO_CHECK(static_cast<std::int64_t>(x.size()) == lq_.rows,
            "CrossbarLayerExecutor::forward: input length " +
                std::to_string(x.size()) + " for " +
                std::to_string(lq_.rows) + " rows");
  const std::int64_t cols = lq_.cols;
  const std::int64_t wpr = cfg_.xbar.cols / prog_.cells_per_weight();
  const double maxw = static_cast<double>(prog_.max_weight());
  std::vector<double> y_int(static_cast<std::size_t>(cols), 0.0);
  double sum_x_total = 0.0;
  for (double v : x) sum_x_total += v;

  std::vector<double> x_slice(static_cast<std::size_t>(cfg_.xbar.rows), 0.0);
  for (std::int64_t tr = 0; tr < tiling_.row_tiles; ++tr) {
    const std::int64_t row_base = tr * cfg_.xbar.rows;
    const std::int64_t rows_here =
        std::min<std::int64_t>(cfg_.xbar.rows, lq_.rows - row_base);
    std::fill(x_slice.begin(), x_slice.end(), 0.0);
    for (std::int64_t r = 0; r < rows_here; ++r) {
      x_slice[static_cast<std::size_t>(r)] =
          x[static_cast<std::size_t>(row_base + r)];
    }
    // One digital offset group = m consecutive wordlines of one column.
    for (std::int64_t g0 = 0; g0 < rows_here; g0 += cfg_.offsets.m) {
      const std::int64_t g1 =
          std::min<std::int64_t>(rows_here, g0 + cfg_.offsets.m);
      const std::int64_t group = group_of_row(row_base + g0, cfg_.offsets.m);
      double sum_x_g = 0.0;  // the digital Sum unit
      for (std::int64_t r = g0; r < g1; ++r) {
        sum_x_g += x_slice[static_cast<std::size_t>(r)];
      }
      for (std::int64_t tc = 0; tc < tiling_.col_tiles; ++tc) {
        const std::vector<double> cell_sums =
            xbar_at(tr, tc).vmm_rows(x_slice, static_cast<int>(g0),
                                     static_cast<int>(g1));
        for (std::int64_t wc = 0; wc < wpr; ++wc) {
          const std::int64_t col = tc * wpr + wc;
          if (col >= cols) break;
          // Shift-and-add across the weight's bit-slice columns.
          double z = 0.0;
          double radix = 1.0;
          for (int k = 0; k < prog_.cells_per_weight(); ++k) {
            z += radix *
                 cell_sums[static_cast<std::size_t>(
                     wc * prog_.cells_per_weight() + k)];
            radix *= cfg_.xbar.cell.radix();
          }
          const std::size_t gi = static_cast<std::size_t>(group * cols + col);
          // Digital offset unit: + b * sum(x)  (Eq. 1).
          const double zc = z + offsets_[gi] * sum_x_g;
          // Complement post-processing (Sec. III-C).
          y_int[static_cast<std::size_t>(col)] +=
              assign_.complemented[gi] ? maxw * sum_x_g - zc : zc;
        }
      }
    }
  }
  // ISAAC weight shift + dequantization.
  std::vector<double> y(static_cast<std::size_t>(cols));
  for (std::int64_t c = 0; c < cols; ++c) {
    y[static_cast<std::size_t>(c)] =
        lq_.scale * (y_int[static_cast<std::size_t>(c)] -
                     static_cast<double>(lq_.zero) * sum_x_total);
  }
  return y;
}

std::vector<double> CrossbarLayerExecutor::forward_bit_serial(
    const std::vector<double>& x, int input_bits, double x_max) const {
  RDO_CHECK(input_bits >= 1 && input_bits <= 16 && x_max > 0.0,
            "forward_bit_serial: bad input format (bits = " +
                std::to_string(input_bits) + ")");
  rdo::obs::TraceSpan span("sim:forward_bit_serial", "sim");
  span.arg("input_bits", input_bits);
  const int levels = (1 << input_bits) - 1;
  std::vector<int> xq(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < 0.0) {
      // Silently clamping would corrupt results for non-ReLU inputs; the
      // paper assumes unsigned DAC inputs, so reject instead.
      throw std::invalid_argument(
          "forward_bit_serial: negative input (DAC inputs are unsigned; "
          "rescale or rectify activations first)");
    }
    const double q = std::round(x[i] / x_max * levels);
    xq[i] = static_cast<int>(std::clamp(q, 0.0, static_cast<double>(levels)));
  }
  std::vector<double> acc(static_cast<std::size_t>(lq_.cols), 0.0);
  std::vector<double> xbit(x.size());
  for (int b = 0; b < input_bits; ++b) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      xbit[i] = static_cast<double>((xq[i] >> b) & 1);
    }
    const std::vector<double> partial = forward(xbit);
    const double weight = static_cast<double>(1 << b);  // shift-and-add
    for (std::size_t c = 0; c < acc.size(); ++c) {
      acc[c] += weight * partial[c];
    }
  }
  // Undo the input quantization scale.
  const double rescale = x_max / static_cast<double>(levels);
  for (auto& v : acc) v *= rescale;
  return acc;
}

std::vector<double> CrossbarLayerExecutor::measure_crw() const {
  rdo::obs::TraceSpan span("sim:measure_crw", "sim");
  const std::int64_t wpr = cfg_.xbar.cols / prog_.cells_per_weight();
  std::vector<double> crw(static_cast<std::size_t>(lq_.rows * lq_.cols));
  std::vector<double> vals(static_cast<std::size_t>(prog_.cells_per_weight()));
  for (std::int64_t r = 0; r < lq_.rows; ++r) {
    const std::int64_t tr = r / cfg_.xbar.rows;
    const int lr = static_cast<int>(r % cfg_.xbar.rows);
    for (std::int64_t c = 0; c < lq_.cols; ++c) {
      const std::int64_t tc = c / wpr;
      const std::int64_t wc = c % wpr;
      for (int k = 0; k < prog_.cells_per_weight(); ++k) {
        vals[static_cast<std::size_t>(k)] = xbar_at(tr, tc).cell_value(
            lr, static_cast<int>(wc * prog_.cells_per_weight() + k));
      }
      crw[static_cast<std::size_t>(r * lq_.cols + c)] = prog_.compose(vals);
    }
  }
  return crw;
}

}  // namespace rdo::sim
