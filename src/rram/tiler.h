// Mapping of a weight matrix onto 128x128 crossbars.
//
// Each n-bit weight occupies cells_per_weight adjacent bitlines (bit
// slices); matrix rows are chunked across crossbar wordlines. Used for
// crossbar-count accounting (Table III) and to size the device-level
// simulation, whose CrossbarLayerExecutor reads array (tr, tc) as a
// window onto the layer's flat cells.
#pragma once

#include <cstdint>

namespace rdo::rram {

struct TilingInfo {
  std::int64_t matrix_rows = 0;
  std::int64_t matrix_cols = 0;
  int cells_per_weight = 0;
  std::int64_t row_tiles = 0;
  std::int64_t col_tiles = 0;
  [[nodiscard]] std::int64_t total_crossbars() const {
    return row_tiles * col_tiles;
  }
};

/// Tiling of a rows x cols weight matrix over crossbars of the given size.
TilingInfo compute_tiling(std::int64_t matrix_rows, std::int64_t matrix_cols,
                          int crossbar_rows, int crossbar_cols,
                          int cells_per_weight);

}  // namespace rdo::rram
