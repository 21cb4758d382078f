// ISAAC-tile cost model with digital-offset support (paper §III-E, §IV-B).
//
// Reproduces the Table II accounting: an ISAAC tile (0.372 mm^2, 330 mW,
// 100 ns cycle; Shafiee et al., ISCA'16) is extended per crossbar with
//   * one m-input 1-bit adder per read group (sums the activated
//     wordline input bits; cost grows with m),
//   * one 8x8 Wallace-tree multiplier, time-multiplexed across the
//     crossbar's columns (computes b * sum(x)),
//   * H = S*l/m offset registers of offset_bits each (Eq. 9), built from
//     SRAM.
// Gate-level unit costs are first-order 32 nm standard-cell estimates
// (full-adder equivalents), standing in for the paper's Synopsys DC
// synthesis at Nangate 45 nm scaled to 32 nm (see DESIGN.md).
#pragma once

#include <vector>

namespace rdo::arch {

/// Fixed parameters of the baseline ISAAC tile.
struct TileParams {
  double tile_area_mm2 = 0.372;
  double tile_power_mw = 330.0;
  int crossbars_per_tile = 96;  ///< 12 IMAs x 8 arrays (ISAAC)
  int crossbar_rows = 128;
  int crossbar_cols = 128;
  int weight_bits = 8;
  int cell_bits = 2;  ///< ISAAC stores 2 bits/cell
  /// Share of tile power spent reading the RRAM devices; the reading-power
  /// savings of VAWO* (Table I) apply to this share.
  double device_read_power_mw = 30.0;
  double clock_ns = 100.0;
};

/// 32 nm first-order standard-cell unit costs.
struct GateCosts {
  double fa_area_um2 = 3.0;    ///< full adder
  double fa_power_uw = 1.44;
  double fa_delay_ns = 0.35;
  double and_area_um2 = 0.6;
  double and_power_uw = 0.15;
  double sram_bit_area_um2 = 0.1;
  double sram_bit_power_uw = 0.03;
};

/// Digital-offset hardware attached to one crossbar.
struct OffsetHardware {
  int adder_fa = 0;       ///< FA-equivalents in the m-input bit-count adder
  int multiplier_fa = 0;  ///< FA-equivalents in the Wallace tree
  int multiplier_and = 0; ///< partial-product AND gates
  long long register_bits = 0;

  [[nodiscard]] double area_um2(const GateCosts& g) const;
  [[nodiscard]] double power_uw(const GateCosts& g) const;
};

/// Hardware needed for sharing granularity m with `offset_bits`-bit
/// registers on a crossbar of the given tile geometry.
OffsetHardware offset_hardware(int m, int offset_bits, const TileParams& tp);

/// Critical-path delay of the Sum+Multi pipeline stage (adder tree depth +
/// Wallace tree + final carry-propagate adder). Must not exceed
/// TileParams::clock_ns for the stage to hide inside the ISAAC pipeline.
double sum_multi_delay_ns(int m, const GateCosts& g);

/// Total Table II-style tile overhead.
///
/// `read_power_ratio` is the measured relative device reading power of the
/// deployed scheme vs. plain (Table I; 1.0 = no change); the saving
/// (1 - ratio) * device_read_power_mw offsets the digital additions.
struct TileOverhead {
  double area_mm2 = 0.0;
  double power_mw = 0.0;
  double area_pct = 0.0;   ///< vs. tile_area_mm2
  double power_pct = 0.0;  ///< vs. tile_power_mw
};

TileOverhead tile_overhead(int m, int offset_bits, double read_power_ratio,
                           const TileParams& tp = {},
                           const GateCosts& g = {});

/// Eq. 9 generalized to one layer's own matrix: ceil(rows / m) offset
/// groups per column, one register each. This is what
/// core::DeploymentPlan::total_offset_registers() sums before the
/// optimizer pass shrinks it (asserted in tests/test_arch.cpp), so the
/// cost model and the plan accounting cannot drift apart.
long long layer_offset_registers(long long rows, long long cols, int m);

/// Per-layer slice of a compiled plan, as consumed by plan_overhead():
/// the crossbars the layer tiles onto and the registers it actually
/// needs (color_offset_registers may have shrunk them below the Eq. 9
/// geometric count).
struct LayerOffsetCost {
  long long crossbars = 0;
  long long registers = 0;
};

/// Plan-aware Table II accounting: the per-layer generalization of
/// tile_overhead() that prices every crossbar's adder at the plan's one
/// offset-group size `m` and the register file at the registers the
/// plan actually keeps.
struct PlanOverhead {
  long long registers = 0;      ///< sum of LayerOffsetCost::registers
  long long register_bits = 0;  ///< registers * offset_bits
  long long tiles_used = 0;     ///< ceil(total crossbars / per tile)
  double area_mm2 = 0.0;
  double power_mw = 0.0;
  double area_pct = 0.0;   ///< vs. tiles_used * tile_area_mm2
  double power_pct = 0.0;  ///< vs. tiles_used * tile_power_mw
};

PlanOverhead plan_overhead(const std::vector<LayerOffsetCost>& layers,
                           int m, int offset_bits, double read_power_ratio,
                           const TileParams& tp = {},
                           const GateCosts& g = {});

}  // namespace rdo::arch
