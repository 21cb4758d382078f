// Variation-aware weight optimization (paper §III-B) and the weight
// complement enhancement (§III-C).
//
// For every group of m NTWs sharing one digital offset, VAWO picks the
// offset b and CTWs v_i that keep the network real weights unbiased
// (E[R(v_i)] + b = w_i*) while minimizing
//     sum_i (dL/dw_i)^2 * Var[R(v_i)].
// The offset is enumerated over all 2^offset_bits register values; each
// candidate inverts the E[R(v)] LUT to recover the v_i (the paper's exact
// procedure). When the constraint is unreachable for some weight (target
// outside the representable conductance range), the residual bias enters
// the objective as bias^2 — the natural extension of the paper's
// first-order analysis; set `penalize_bias = false` for the strict
// formulation (ablation).
//
// With `use_complement`, the mirrored problem over complemented targets
// (2^n - 1 - w_i*) is solved too and the better of the two forms is kept
// (VAWO*).
//
// The per-weight cost depends only on the integer target value
// t = target_ntw - b, so a dense VawoTable of (ctw, var, bias) indexed by
// t is built once per plan and the objective of every candidate collapses
// to a gather + dot product. The enumeration order, floating-point
// expression shapes and tie-breaking reproduce the literal per-candidate
// procedure (one LUT inversion per offset, form and weight) bit-for-bit;
// that procedure is kept as the oracle in tests/vawo_oracle.h and
// checked exhaustively in tests/test_vawo_parity.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "core/offset.h"
#include "quant/quantizer.h"
#include "rram/rlut.h"

namespace rdo::core {

struct VawoOptions {
  OffsetConfig offsets;
  bool use_complement = false;
  bool penalize_bias = true;
};

/// Dense per-target-value cost table of the VAWO solver.
///
/// For every integer target value t = target_ntw - b that the enumeration
/// can produce — t spans [0 - offset_max, weight_levels - offset_min], one
/// contiguous range of weight_levels + 2^offset_bits entries — the table
/// stores the inverted CTW `ctw(t) = invert_mean(t)`, its variance
/// `var(t) = Var[R(ctw(t))]` and the residual bias
/// `bias(t) = E[R(ctw(t))] - t` (zeroed when `penalize_bias` is off, which
/// keeps the hot loop branch-free). Entries are laid out so that the
/// candidates of one weight with target_ntw = tau occupy the contiguous
/// slice [tau, tau + 2^offset_bits): index tau + j holds the cost of
/// offset b = offset_max - j. Shifting b by one therefore shifts every
/// index by one (adjacent offsets share all table work), and the
/// complement form only mirrors the base index to levels - ntw.
///
/// The table depends on the LUT, the weight range and the offset config
/// only — every group of a layer (and every layer of a plan compiled at
/// one weight width) shares a single instance.
class VawoTable {
 public:
  /// Precompute the table: one invert_mean per target value instead of
  /// one per (group x offset x form x weight) candidate.
  static VawoTable build(const rdo::rram::RLut& lut, int weight_levels,
                         const OffsetConfig& offsets, bool penalize_bias);

  [[nodiscard]] int weight_levels() const { return levels_; }
  [[nodiscard]] int offset_min() const { return bmin_; }
  [[nodiscard]] int offset_max() const { return bmax_; }
  [[nodiscard]] int offset_count() const { return bmax_ - bmin_ + 1; }
  [[nodiscard]] bool penalize_bias() const { return penalize_bias_; }
  [[nodiscard]] std::size_t size() const { return ctw_.size(); }

  /// Row pointers for a weight with target value `tau` (in [0, levels]):
  /// element j of the row is the cost entry of offset b = offset_max - j.
  [[nodiscard]] const double* var_row(int tau) const {
    return var_.data() + tau;
  }
  [[nodiscard]] const double* bias_row(int tau) const {
    return bias_.data() + tau;
  }
  [[nodiscard]] const int* ctw_row(int tau) const { return ctw_.data() + tau; }

 private:
  int levels_ = 0;
  int bmin_ = 0;
  int bmax_ = -1;
  bool penalize_bias_ = true;
  std::vector<int> ctw_;
  std::vector<double> var_;
  std::vector<double> bias_;
};

/// VAWO output for one layer.
struct VawoResult {
  std::vector<int> ctw;              ///< [rows*cols] crossbar target weights
  std::vector<float> offsets;        ///< [groups_per_col*cols], value of b
  std::vector<std::uint8_t> complemented;  ///< per group, 1 = stored inverted
  std::int64_t groups_per_col = 0;
  double total_objective = 0.0;
};

/// Solve one offset group.
///
/// `ntw`/`g2` hold the m' (<= m) weights of the group and their squared
/// gradient weights (g2_i = grad_i^2); all ntw values must lie in
/// [0, table.weight_levels()]. Returns the chosen offset, complement flag
/// and CTWs through the out-parameters, and the objective value achieved.
/// Throws ContractViolation on an empty or mismatched group or an
/// out-of-range NTW (the out-parameters are never left unwritten on a
/// successful return).
double vawo_solve_group(const std::vector<int>& ntw,
                        const std::vector<double>& g2, const VawoTable& table,
                        bool use_complement, int& best_offset,
                        bool& best_complemented, std::vector<int>& best_ctw);

/// Run VAWO over a whole quantized layer.
///
/// `grads` is the row-major [rows*cols] matrix of mean loss gradients
/// dL/dw (in effective-weight units; only relative magnitudes matter
/// within a group). `table` must have been built for (lut, lq.levels(),
/// opt.offsets, opt.penalize_bias); one table serves every layer of a
/// plan compiled at one weight width.
VawoResult vawo_layer(const rdo::quant::LayerQuant& lq,
                      const std::vector<double>& grads,
                      const VawoTable& table, const VawoOptions& opt);

/// The "plain" assignment (CTW = NTW, zero offsets) in the same format,
/// for the baseline scheme.
VawoResult plain_layer(const rdo::quant::LayerQuant& lq, int m);

}  // namespace rdo::core
