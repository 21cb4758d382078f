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
// The executor holds no device state: no cells, no offsets, no
// programmer. Each forward reads the layer's programmed state where it
// sits, the flat cells WeightProgrammer::program_weights drew and the
// working offsets (core::EffectiveWeightBackend::LayerState::cells and
// ::offsets), with array (tr, tc) a window onto the flat cells. The bit
// width comes from the layer's quantizer, the cell count and radix from
// the crossbar's cell model and the complement flags from the layer's
// assignment. The fast path (core::EffectiveWeightBackend) absorbs all of
// the above into effective weights; tests/test_sim.cpp proves the two
// paths agree on the same devices, which is what licenses the fast path
// for the accuracy benches.
#pragma once

#include <cstdint>
#include <span>

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
  /// cells of xbar.cell) and tiles `lq` onto crossbars. `assign` supplies
  /// the CTWs and the complement flags (use core::plain_layer for the
  /// plain scheme); it must outlive the executor, whose forward() reads
  /// its complement flags.
  CrossbarLayerExecutor(const rdo::quant::LayerQuant& lq,
                        const rdo::core::VawoResult& assign,
                        const ExecutorConfig& cfg);

  /// Device-level forward on the programmed state: `cells` holds the
  /// per-cell read values, flat [rows * cols * cells_per_weight]
  /// (row-major weights, LSB cell first: the exact outputs of
  /// WeightProgrammer::program_weights), `offsets` the working offsets
  /// [groups_per_col * cols]. x holds n samples [n x lq.rows] (activation
  /// units), y receives their [n x lq.cols] effective (dequantized)
  /// outputs. Array (tr, tc) reads the window of `cells` that starts at
  /// layer row tr * xbar.rows and cell column tc * wpr * cells_per_weight
  /// (wpr = xbar.cols / cells_per_weight weights per array row) and is at
  /// most wpr * cells_per_weight cells wide. Loops row tile, offset group,
  /// sample, so one crossbar read (Crossbar::vmm_rows) serves the whole
  /// batch; the shift-and-add, offset unit, complement and ISAAC shift
  /// keep each sample's arithmetic order, so every output is the same for
  /// any n.
  ///
  /// Thread safety: const and only reads, so any number of threads may
  /// call forward() concurrently while nobody writes `cells` or `offsets`.
  void forward(std::span<const double> cells, std::span<const float> offsets,
               std::span<const double> x, std::int64_t n,
               std::span<double> y) const;

  [[nodiscard]] const rdo::rram::TilingInfo& tiling() const {
    return tiling_;
  }
  [[nodiscard]] std::int64_t crossbar_count() const {
    return tiling_.total_crossbars();
  }

 private:
  rdo::quant::LayerQuant lq_;  ///< shape and quantizer; q left empty (the
                               ///< devices hold the CTWs)
  std::span<const std::uint8_t> complemented_;  ///< into assign, per group
  ExecutorConfig cfg_;
  int cells_per_weight_ = 0;  ///< lq.bits / xbar.cell.bits()
  rdo::rram::TilingInfo tiling_;
  rdo::rram::Crossbar xbar_;  ///< the read of every array of the layer
};

}  // namespace rdo::sim
