// Digital-offset group geometry.
//
// An offset register is shared by m consecutive weights of one matrix
// column (the weights read out together on m activated wordlines,
// paper §III-A). m must be a multiple of the number of wordlines activated
// per cycle; with the paper's 128x128 crossbars and m in {16, 64, 128},
// row-blocks of m never straddle a crossbar boundary.
#pragma once

#include <cstdint>
#include <string>

#include "core/check.h"

namespace rdo::core {

/// Widest offset register; VawoTable::build sizes arrays at 2^offset_bits.
inline constexpr int kMaxOffsetBits = 16;

struct OffsetConfig {
  int m = 16;           ///< sharing granularity (weights per offset)
  int offset_bits = 8;  ///< offset register width (signed)

  /// Contract check for externally supplied configs. `offset_min()` /
  /// `offset_max()` shift by `offset_bits - 1`, so `offset_bits = 0` (or
  /// anything >= 31) is undefined behaviour and a hostile value would
  /// otherwise enumerate an empty (or astronomically large) offset range.
  /// Every consumer of an OffsetConfig that crossed an API boundary
  /// (solver entry points; compile_plan through check_options) checks it.
  void validate() const {
    RDO_CHECK(m >= 1, "OffsetConfig: m = " + std::to_string(m) + " < 1");
    RDO_CHECK(offset_bits >= 1 && offset_bits <= kMaxOffsetBits,
              "OffsetConfig: offset_bits = " + std::to_string(offset_bits) +
                  " outside [1, " + std::to_string(kMaxOffsetBits) + "]");
  }

  [[nodiscard]] int offset_min() const { return -(1 << (offset_bits - 1)); }
  [[nodiscard]] int offset_max() const {
    return (1 << (offset_bits - 1)) - 1;
  }
  /// Number of representable register values, 2^offset_bits.
  [[nodiscard]] int offset_count() const { return 1 << offset_bits; }
};

/// Number of offset groups along one column of a `rows`-row matrix.
inline std::int64_t groups_per_column(std::int64_t rows, int m) {
  RDO_CHECK(m > 0, "groups_per_column: m = " + std::to_string(m) + " <= 0");
  return (rows + m - 1) / m;
}

/// Group index of matrix row `r`.
inline std::int64_t group_of_row(std::int64_t r, int m) { return r / m; }

}  // namespace rdo::core
