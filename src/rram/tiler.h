// Mapping of a weight matrix onto 128x128 crossbars.
//
// Each n-bit weight occupies cells_per_weight adjacent bitlines (bit
// slices); matrix rows are chunked across crossbar wordlines. Used for
// crossbar-count accounting (Table III) and to drive the device-level
// Crossbar simulation from a quantized layer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rram/crossbar.h"
#include "rram/programmer.h"

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

/// Expand one tile of a rows x cols integer weight matrix (row-major
/// CTWs, e.g. a LayerQuant's q or a VAWO assignment's ctw) into crossbar
/// cell states. Tile (tr, tc) covers matrix rows [tr*R, ...) and weight
/// columns that fit in the crossbar given the per-weight cell count.
/// Unused cells are 0.
std::vector<int> tile_states(std::span<const int> weights, std::int64_t rows,
                             std::int64_t cols, const WeightProgrammer& prog,
                             const CrossbarConfig& cfg, std::int64_t tr,
                             std::int64_t tc);

}  // namespace rdo::rram
