#include "rram/tiler.h"

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

}  // namespace rdo::rram
