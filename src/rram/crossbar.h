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
// The array is a pure read substrate: it draws no devices. Its one store
// of per-cell read values, which is all a read sees, is written only
// through program_values(), with cells drawn by
// WeightProgrammer::program_weights (variation scope and faults
// included), so every backend observes the same devices.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rram/cell.h"

namespace rdo::rram {

struct CrossbarConfig {
  int rows = 128;
  int cols = 128;
  CellModel cell;
  int active_wordlines = 16;  ///< wordlines driven per read cycle
};

class Crossbar {
 public:
  explicit Crossbar(CrossbarConfig cfg);

  /// The per-cell read values (state-units, row-major, size rows*cols),
  /// the only way to program the array: the caller writes the
  /// post-variation (and post-fault) values that
  /// WeightProgrammer::program_weights drew, so both execution backends
  /// observe bit-identical devices. An HRS array until first written.
  [[nodiscard]] std::span<double> program_values() { return values_; }
  /// The same values, read-only.
  [[nodiscard]] std::span<const double> values() const { return values_; }

  /// Batched partial VMM over wordlines [r0, r1): the read cycles a
  /// digital offset group of those rows observes, for n inputs `x`
  /// ([n x rows], row-major) into `y` ([n x cols], overwritten). r0 must
  /// be aligned to the activation-group size. Loop order: activation
  /// group, sample, row, column tile. For one (sample, column) the rows
  /// of a group are summed in ascending order from +0.0 (a zero input
  /// skips its row) and group sums are added in ascending order, so every
  /// output is the same for any n.
  void vmm_rows(std::span<const double> x, std::int64_t n, int r0, int r1,
                std::span<double> y) const;

  [[nodiscard]] const CrossbarConfig& config() const { return cfg_; }

 private:
  CrossbarConfig cfg_;
  std::vector<double> values_;  // row-major read values, written only
                                // through program_values()

  [[nodiscard]] std::size_t idx(int r, int c) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(cfg_.cols) +
           static_cast<std::size_t>(c);
  }
};

}  // namespace rdo::rram
