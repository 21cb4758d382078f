#include "arch/isaac_cost.h"

#include <cmath>
#include <string>

#include "core/check.h"

namespace rdo::arch {

double OffsetHardware::area_um2(const GateCosts& g) const {
  return (adder_fa + multiplier_fa) * g.fa_area_um2 +
         multiplier_and * g.and_area_um2 +
         static_cast<double>(register_bits) * g.sram_bit_area_um2;
}

double OffsetHardware::power_uw(const GateCosts& g) const {
  return (adder_fa + multiplier_fa) * g.fa_power_uw +
         multiplier_and * g.and_power_uw +
         static_cast<double>(register_bits) * g.sram_bit_power_uw;
}

OffsetHardware offset_hardware(int m, int offset_bits, const TileParams& tp) {
  RDO_CHECK(m > 0 && offset_bits > 0,
            "offset_hardware: m = " + std::to_string(m) +
                ", offset_bits = " + std::to_string(offset_bits));
  OffsetHardware hw;
  // Bit-count adder for m 1-bit inputs: a compressor tree needs about
  // m - ceil(log2(m+1)) full adders; we use the conservative m - 1 count
  // (matches the paper's observation that adder cost grows with m).
  hw.adder_fa = m - 1;
  // 8x8 Wallace multiplier: 64 partial-product ANDs, ~48 FA equivalents in
  // the reduction tree plus a 16-bit final carry-propagate adder.
  hw.multiplier_fa = 48 + 16;
  hw.multiplier_and = 64;
  // Eq. 9: H = S * l / m registers of offset_bits bits, where l is the
  // number of weight columns stored (crossbar columns / cells per weight).
  const int cells_per_weight = tp.weight_bits / tp.cell_bits;
  const long long l = tp.crossbar_cols / cells_per_weight;
  hw.register_bits = static_cast<long long>(tp.crossbar_rows) * l / m *
                     offset_bits;
  return hw;
}

double sum_multi_delay_ns(int m, const GateCosts& g) {
  // Adder tree depth ~ log2(m) FA stages, Wallace reduction ~ 6 stages for
  // 8x8, final 16-bit carry-propagate ~ 16 FA worst case (ripple bound).
  const double adder_depth = std::ceil(std::log2(static_cast<double>(m)));
  const double wallace_depth = 6.0;
  const double cpa_depth = 16.0;
  return (adder_depth + wallace_depth + cpa_depth) * g.fa_delay_ns;
}

long long layer_offset_registers(long long rows, long long cols, int m) {
  RDO_CHECK(rows > 0 && cols > 0 && m > 0,
            "layer_offset_registers: rows = " + std::to_string(rows) +
                ", cols = " + std::to_string(cols) +
                ", m = " + std::to_string(m));
  return (rows + m - 1) / m * cols;
}

PlanOverhead plan_overhead(const std::vector<LayerOffsetCost>& layers,
                           int m, int offset_bits, double read_power_ratio,
                           const TileParams& tp, const GateCosts& g) {
  // Adder + multiplier per crossbar at the plan's m; the register file
  // is priced at the registers the plan actually keeps (shared registers
  // are fabricated once), not the Eq. 9 count.
  OffsetHardware hw = offset_hardware(m, offset_bits, tp);
  hw.register_bits = 0;
  PlanOverhead o;
  long long crossbars = 0;
  double gate_area_um2 = 0.0;
  double gate_power_uw = 0.0;
  for (const LayerOffsetCost& lc : layers) {
    RDO_CHECK(lc.crossbars >= 0 && lc.registers >= 0,
              "plan_overhead: bad layer cost entry");
    crossbars += lc.crossbars;
    o.registers += lc.registers;
    gate_area_um2 += hw.area_um2(g) * static_cast<double>(lc.crossbars);
    gate_power_uw += hw.power_uw(g) * static_cast<double>(lc.crossbars);
  }
  o.register_bits = o.registers * offset_bits;
  o.tiles_used = (crossbars + tp.crossbars_per_tile - 1) /
                 tp.crossbars_per_tile;
  o.area_mm2 = (gate_area_um2 + static_cast<double>(o.register_bits) *
                                    g.sram_bit_area_um2) *
               1e-6;
  const double digital_mw =
      (gate_power_uw + static_cast<double>(o.register_bits) *
                           g.sram_bit_power_uw) *
      1e-3;
  const double read_saving_mw = (1.0 - read_power_ratio) *
                                tp.device_read_power_mw *
                                static_cast<double>(o.tiles_used);
  o.power_mw = digital_mw - read_saving_mw;
  const double base_area =
      tp.tile_area_mm2 * static_cast<double>(o.tiles_used);
  const double base_power =
      tp.tile_power_mw * static_cast<double>(o.tiles_used);
  o.area_pct = base_area > 0.0 ? 100.0 * o.area_mm2 / base_area : 0.0;
  o.power_pct = base_power > 0.0 ? 100.0 * o.power_mw / base_power : 0.0;
  return o;
}

TileOverhead tile_overhead(int m, int offset_bits, double read_power_ratio,
                           const TileParams& tp, const GateCosts& g) {
  const OffsetHardware hw = offset_hardware(m, offset_bits, tp);
  TileOverhead o;
  o.area_mm2 = hw.area_um2(g) * tp.crossbars_per_tile * 1e-6;
  const double digital_mw =
      hw.power_uw(g) * tp.crossbars_per_tile * 1e-3;
  const double read_saving_mw =
      (1.0 - read_power_ratio) * tp.device_read_power_mw;
  o.power_mw = digital_mw - read_saving_mw;
  o.area_pct = 100.0 * o.area_mm2 / tp.tile_area_mm2;
  o.power_pct = 100.0 * o.power_mw / tp.tile_power_mw;
  return o;
}

}  // namespace rdo::arch
