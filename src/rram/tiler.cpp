#include "rram/tiler.h"

#include <algorithm>
#include <array>
#include <string>

#include "core/check.h"

namespace rdo::rram {

TilingInfo compute_tiling(std::int64_t matrix_rows, std::int64_t matrix_cols,
                          int crossbar_rows, int crossbar_cols,
                          int cells_per_weight) {
  RDO_CHECK(cells_per_weight > 0 && crossbar_cols >= cells_per_weight,
            "compute_tiling: " + std::to_string(cells_per_weight) +
                " cells/weight cannot fit " + std::to_string(crossbar_cols) +
                " crossbar columns");
  RDO_CHECK(matrix_rows > 0 && matrix_cols > 0 && crossbar_rows > 0,
            "compute_tiling: non-positive geometry");
  TilingInfo t;
  t.matrix_rows = matrix_rows;
  t.matrix_cols = matrix_cols;
  t.cells_per_weight = cells_per_weight;
  const std::int64_t weights_per_xbar_row = crossbar_cols / cells_per_weight;
  t.row_tiles = (matrix_rows + crossbar_rows - 1) / crossbar_rows;
  t.col_tiles =
      (matrix_cols + weights_per_xbar_row - 1) / weights_per_xbar_row;
  return t;
}

std::vector<int> tile_states(std::span<const int> weights, std::int64_t rows,
                             std::int64_t cols, const WeightProgrammer& prog,
                             const CrossbarConfig& cfg, std::int64_t tr,
                             std::int64_t tc) {
  RDO_CHECK(static_cast<std::int64_t>(weights.size()) == rows * cols,
            "tile_states: " + std::to_string(weights.size()) +
                " weights for a " + std::to_string(rows) + "x" +
                std::to_string(cols) + " matrix");
  const int cpw = prog.cells_per_weight();
  const std::int64_t weights_per_row = cfg.cols / cpw;
  std::vector<int> states(
      static_cast<std::size_t>(cfg.rows) * static_cast<std::size_t>(cfg.cols),
      0);
  for (std::int64_t r = 0; r < cfg.rows; ++r) {
    const std::int64_t mr = tr * cfg.rows + r;
    if (mr >= rows) break;
    for (std::int64_t wc = 0; wc < weights_per_row; ++wc) {
      const std::int64_t mc = tc * weights_per_row + wc;
      if (mc >= cols) break;
      const std::array<int, WeightProgrammer::kMaxCells> cells =
          prog.slice_states(weights[static_cast<std::size_t>(mr * cols + mc)]);
      std::copy(cells.begin(), cells.begin() + cpw,
                states.begin() + r * cfg.cols + wc * cpw);
    }
  }
  return states;
}

}  // namespace rdo::rram
