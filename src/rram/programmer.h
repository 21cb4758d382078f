// Bit-sliced weight programming: CTW integer -> cell states -> CRW.
//
// An n-bit crossbar target weight (CTW) is sliced across
// n / cell.bits() cells (LSB cell first); programming each cell draws a
// log-normal variation factor, and the crossbar real weight (CRW) is the
// radix-weighted readback — matching Fig. 3 of the paper where variation
// is injected into the individual bits of the CTW.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "nn/rng.h"
#include "rram/cell.h"
#include "rram/faults.h"
#include "rram/variation.h"

namespace rdo::rram {

class WeightProgrammer {
 public:
  WeightProgrammer(CellModel cell, int weight_bits, VariationModel variation,
                   FaultModel faults = {});

  [[nodiscard]] int cells_per_weight() const { return cells_; }
  [[nodiscard]] const CellModel& cell() const { return cell_; }
  [[nodiscard]] const VariationModel& variation() const { return variation_; }
  [[nodiscard]] int weight_bits() const { return weight_bits_; }
  [[nodiscard]] int max_weight() const { return (1 << weight_bits_) - 1; }

  /// Upper bound on cells_per_weight() (a CTW is an int).
  static constexpr int kMaxCells = 32;

  /// Slice integer weight v into cell states, least-significant cell first.
  [[nodiscard]] std::vector<int> slice(int v) const;
  /// The same slice into a fixed-size buffer (no allocation); entries past
  /// cells_per_weight() are 0. Throws std::invalid_argument for a CTW
  /// outside [0, max_weight()].
  [[nodiscard]] std::array<int, kMaxCells> slice_states(int v) const;

  /// Radix-weighted composition of per-cell read values into a CRW.
  [[nodiscard]] double compose(std::span<const double> cell_values) const;

  /// Program CTW `v` once with lumped DDV+CCV variation; returns the CRW.
  /// PerWeight scope: one factor for the whole weight,
  /// CRW = (v + C) e^theta - C with C the composite HRS leakage;
  /// PerCell scope: an independent factor per bit-slice device.
  [[nodiscard]] double program(int v, rdo::nn::Rng& rng) const;

  /// Program CTW `v` and write the individual post-variation cell read
  /// values (LSB cell first) into `out` (cells_per_weight() entries,
  /// caller-owned so a layer is programmed without a per-weight
  /// allocation). Consumes the exact same random draws as program();
  /// program(v, rng) is equivalent to compose() over the values written.
  void program_cells(int v, rdo::nn::Rng& rng, std::span<double> out) const;

  /// Program CTW `v` for a device group whose persistent DDV component is
  /// `ddv_theta` (one theta per cell; PerWeight scope uses ddv_theta[0]);
  /// CCV is drawn fresh from `rng`.
  [[nodiscard]] double program_with_ddv(int v,
                                        const std::vector<double>& ddv_theta,
                                        rdo::nn::Rng& rng) const;

  /// Composite HRS leakage of a whole weight: C = c * sum_k B^k.
  [[nodiscard]] double composite_leakage() const;

  /// Closed-form E[R(v)] (used for the analytic LUT and as a test
  /// oracle). Only valid with a zero fault rate; the Monte-Carlo LUT
  /// covers faults.
  [[nodiscard]] double analytic_mean(int v) const;
  /// Closed-form Var[R(v)] (zero fault rate only).
  [[nodiscard]] double analytic_var(int v) const;

  [[nodiscard]] const FaultModel& faults() const { return faults_; }

 private:
  CellModel cell_;
  int weight_bits_;
  VariationModel variation_;
  FaultModel faults_;
  int cells_;

  /// Per-cell read value after programming: applies a stuck-at fault draw
  /// (exact stuck state) or the variation factor.
  [[nodiscard]] double programmed_cell_value(int state, double factor,
                                             rdo::nn::Rng& rng) const;
};

}  // namespace rdo::rram
