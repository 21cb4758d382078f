// Device-level execution of one crossbar-mapped layer.
//
// This is the hardware-faithful reference path: the quantized layer is
// tiled onto 128x128 Crossbar arrays (bit-sliced cells, wordline-
// activation groups, an ideal ADC), the digital offset
// units compute b * sum(x) per group, the complement post-processing
// applies (2^n - 1) * sum(x) - z', and the ISAAC weight shift subtracts
// zero * sum(x).
//
// A forward takes a batch of samples: each crossbar tile is read once
// per offset group for the whole batch rather than once per sample.
//
// The executor draws no devices and holds no programmer: the bit width
// comes from the layer's quantizer, the cell count and radix from the
// crossbar's cell model, and program_cell_values() is the only way its
// crossbars get values, from cells drawn by
// WeightProgrammer::program_weights (the effective-weight backend's draw).
// The fast path (core::EffectiveWeightBackend) absorbs all of the above
// into effective weights; tests/test_sim.cpp proves the two paths agree
// on the same devices, which is what licenses the fast path for the
// accuracy benches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/vawo.h"
#include "quant/quantizer.h"
#include "rram/crossbar.h"
#include "rram/tiler.h"

namespace rdo::sim {

struct ExecutorConfig {
  rdo::rram::CrossbarConfig xbar;  ///< geometry, cell
  rdo::core::OffsetConfig offsets;
};

class CrossbarLayerExecutor {
 public:
  /// Validates the geometry and the CTWs (lq.bits must split into whole
  /// cells of xbar.cell), tiles `lq` onto crossbars and allocates them
  /// (unprogrammed: every cell reads as HRS until program_cell_values()).
  /// `assign` supplies CTWs, offsets and complement flags (use
  /// core::plain_layer for the plain scheme).
  CrossbarLayerExecutor(const rdo::quant::LayerQuant& lq,
                        const rdo::core::VawoResult& assign,
                        const ExecutorConfig& cfg);

  /// Program every device from per-cell read values, flat
  /// [rows * cols * cells_per_weight] (row-major weights, LSB cell first)
  /// — the exact outputs of WeightProgrammer::program_weights, so the
  /// device level observes bit-identical conductances to the
  /// effective-weight path. Padding cells read as ideal HRS.
  void program_cell_values(std::span<const double> cells);

  /// Device-level forward: x holds n samples [n x lq.rows] (activation
  /// units), y receives their [n x lq.cols] effective (dequantized)
  /// outputs. Loops row tile, offset group, sample, so one
  /// crossbar read (Crossbar::vmm_rows) serves the whole batch; the
  /// shift-and-add, offset unit, complement and ISAAC shift keep each
  /// sample's arithmetic order, so every output is the same for any n.
  ///
  /// Thread safety: const and touches only state that is immutable
  /// between programmings (crossbar cells, CTWs, offsets), so any number
  /// of threads may call forward() concurrently.
  /// program_cell_values() and set_offsets() are the only mutators and
  /// must not race with concurrent forwards.
  void forward(std::span<const double> x, std::int64_t n,
               std::span<double> y) const;

  /// Replace the working offsets (e.g. after PWT).
  void set_offsets(std::vector<float> offsets);

  [[nodiscard]] const rdo::rram::TilingInfo& tiling() const {
    return tiling_;
  }
  [[nodiscard]] std::int64_t crossbar_count() const {
    return static_cast<std::int64_t>(xbars_.size());
  }
  /// The crossbar of row tile tr and column tile tc.
  [[nodiscard]] const rdo::rram::Crossbar& crossbar(std::int64_t tr,
                                                    std::int64_t tc) const {
    return xbars_[static_cast<std::size_t>(tr * tiling_.col_tiles + tc)];
  }

 private:
  rdo::quant::LayerQuant lq_;  ///< shape and quantizer; q left empty (the
                               ///< devices hold assign_.ctw)
  rdo::core::VawoResult assign_;
  ExecutorConfig cfg_;
  int cells_per_weight_ = 0;  ///< lq.bits / xbar.cell.bits()
  rdo::rram::TilingInfo tiling_;
  std::vector<rdo::rram::Crossbar> xbars_;  // row-major [row_tile][col_tile]
  std::vector<float> offsets_;
};

}  // namespace rdo::sim
