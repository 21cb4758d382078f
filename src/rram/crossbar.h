// Device-level crossbar array simulation.
//
// Models the analog substrate a deployment runs on: a rows x cols grid of
// RRAM cells read out group-by-group (only `active_wordlines` wordlines
// are driven per cycle, as in the paper's 128x128 / 16-active
// configuration) through an ideal ADC: a group's partial sum is read
// exactly.
//
// A read is one batched kernel, vmm_rows(): n inputs share each
// activation group's conductances, which are loaded once per group and
// reused across the batch, so a batch streams the array once instead of
// once per sample. Each output element keeps the single-input summation
// order, so batching never changes a result.
//
// The array owns no cells and draws no devices: a read goes through a
// CellWindow onto per-cell read values that the caller holds, the ones
// WeightProgrammer::program_weights drew (variation scope and faults
// included), so every backend observes the same devices. A layer's flat
// cells are one window per array (sim::CrossbarLayerExecutor).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "rram/cell.h"

namespace rdo::rram {

struct CrossbarConfig {
  int rows = 128;
  int cols = 128;
  CellModel cell;
  int active_wordlines = 16;  ///< wordlines driven per read cycle
};

/// The cells of one array, read where the caller keeps them: cell (r, c)
/// is at[r * stride + c] (state-units), for the first `width` <= cols
/// bitlines. Bitlines past `width` hold no weight and are not read.
struct CellWindow {
  const double* at = nullptr;
  std::size_t stride = 0;
  int width = 0;
};

class Crossbar {
 public:
  explicit Crossbar(CrossbarConfig cfg);

  /// Batched partial VMM over wordlines [r0, r1) of the array whose cells
  /// `g` points at: the read cycles a digital offset group of those rows
  /// observes, for n inputs `x` ([n x rows], row-major) into `y`
  /// ([n x g.width], overwritten). r0 must be aligned to the
  /// activation-group size; rows [r0, r1) of the window must be readable.
  /// Loop order: activation group, sample, row, column tile. For one
  /// (sample, column) the rows of a group are summed in ascending order
  /// from +0.0 (a zero input skips its row) and group sums are added in
  /// ascending order, so every output is the same for any n and width.
  void vmm_rows(CellWindow g, std::span<const double> x, std::int64_t n,
                int r0, int r1, std::span<double> y) const;

  [[nodiscard]] const CrossbarConfig& config() const { return cfg_; }

 private:
  CrossbarConfig cfg_;
};

}  // namespace rdo::rram
