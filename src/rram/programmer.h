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

  /// Program every CTW of `ctw` once with lumped DDV+CCV variation, in
  /// order, from `rng`; crw[i] is weight i's CRW, the radix-weighted sum
  /// of its per-cell read values (LSB cell first). PerWeight scope: one
  /// factor for the whole weight, CRW = (v + C) e^theta - C with C the
  /// composite HRS leakage; PerCell scope: an independent factor per
  /// bit-slice device. Per cell (LSB first) the draws are its factor
  /// (PerCell), then a stuck-at uniform when faults are configured.
  /// `cells` is either empty (cells are not kept) or receives weight i's
  /// post-variation read values at
  /// [i * cells_per_weight(), (i + 1) * cells_per_weight()). Throws
  /// std::invalid_argument for a CTW outside [0, max_weight()] or
  /// mismatched spans.
  void program_weights(std::span<const int> ctw, rdo::nn::Rng& rng,
                       std::span<double> cells, std::span<double> crw) const;

  /// program_weights() of the one CTW `v`; returns its CRW.
  [[nodiscard]] double program(int v, rdo::nn::Rng& rng) const;

  /// Program CTW `v` for a device group whose persistent DDV component is
  /// `ddv_theta` (one theta per cell; PerWeight scope uses ddv_theta[0]);
  /// CCV is drawn fresh from `rng`.
  [[nodiscard]] double program_with_ddv(int v,
                                        const std::vector<double>& ddv_theta,
                                        rdo::nn::Rng& rng) const;

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
  // Derived once from the models above (every draw reads them):
  int state_mask_ = 0;             ///< cell states - 1
  double hrs_ = 0.0;               ///< cell_.hrs_offset()
  double stuck_hrs_value_ = 0.0;   ///< read_value(0, 1.0)
  double stuck_lrs_value_ = 0.0;   ///< read_value(states - 1, 1.0)
  double stuck_rate_ = 0.0;        ///< stuck_hrs_rate + stuck_lrs_rate
  double sigma_ccv_ = 0.0;         ///< variation_.sigma_ccv()
  std::array<double, kMaxCells> radix_pow_{};  ///< radix^k, k < cells_

  /// Composite HRS leakage of a whole weight: C = c * sum_k B^k.
  [[nodiscard]] double composite_leakage() const;
  /// State of cell k of CTW v (no range check).
  [[nodiscard]] int state_of(int v, int k) const;
  /// Read value of a cell in `state` after a fault draw (when faults are
  /// configured): the exact stuck state, or the variation `factor`.
  [[nodiscard]] double programmed_cell_value(int state, double factor,
                                             rdo::nn::Rng& rng) const;
};

}  // namespace rdo::rram
