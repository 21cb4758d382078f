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
// to a gather + dot product. The expression shapes and tie-breaking
// reproduce the literal per-candidate procedure (one LUT inversion per
// offset, form and weight) bit-for-bit; that procedure is kept as the
// oracle in tests/vawo_oracle.h and checked in tests/test_vawo_parity.cpp.
//
// The search is pruned, and the pruning is exact. Each form's offsets are
// visited in blocks of VawoTable::kBlock, starting at the block of the
// previous group's winner and moving outward. A block is skipped when a
// lower bound on all its objectives exceeds the best objective of a
// finished block, and dropped mid-sweep once every lane's running sum
// exceeds it (checked every 4 weights). Every per-weight term is >= +0
// (g2 * var with var >= 0, and g2 * bias * bias), and round-to-nearest is
// monotone, so a partial sum never exceeds its final sum, and the bound
// (the same sum over the block's window minima of var and |bias|) never
// exceeds any objective of its block. Pruning on a strict `>` therefore
// only discards candidates that end strictly above the winner: none of
// them can win or tie. The winner scan then walks the finished blocks in
// the oracle's enumeration order (form-major, offset ascending) with a
// strict `<`, so the first minimum wins as before.
#pragma once

#include <cstdint>
#include <vector>

#include "core/offset.h"
#include "nn/kernel_isa.h"
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
/// For the pruned search the table also keeps the minima of var and
/// |bias| over every offset block of every row, laid out so that one
/// row's block minima are contiguous, and pads var and bias so that a
/// full block read stays inside them when the register has fewer than
/// kBlock offsets.
///
/// The table depends on the LUT, the weight range and the offset config
/// only — every group of a layer (and every layer of a plan compiled at
/// one weight width) shares a single instance.
class VawoTable {
 public:
  /// Offsets per block of the pruned search.
  static constexpr int kBlock = 16;

  /// Precompute the table: one invert_mean per target value instead of
  /// one per (group x offset x form x weight) candidate. Throws
  /// ContractViolation if a LUT variance is negative or NaN (the pruned
  /// search needs every term >= 0).
  static VawoTable build(const rdo::rram::RLut& lut, int weight_levels,
                         const OffsetConfig& offsets, bool penalize_bias);

  [[nodiscard]] int weight_levels() const { return levels_; }
  [[nodiscard]] int offset_min() const { return bmin_; }
  [[nodiscard]] int offset_max() const { return bmax_; }
  [[nodiscard]] int offset_count() const { return bmax_ - bmin_ + 1; }
  [[nodiscard]] bool penalize_bias() const { return penalize_bias_; }
  [[nodiscard]] std::size_t size() const { return ctw_.size(); }
  /// Offsets of one block that are register values: min(kBlock, count).
  [[nodiscard]] int block_width() const {
    return offset_count() < kBlock ? offset_count() : kBlock;
  }

  /// Row pointers for a weight with target value `tau` (in [0, levels]):
  /// element j of the row is the cost entry of offset b = offset_max - j.
  [[nodiscard]] const double* var_row(int tau) const {
    return var_.data() + tau;
  }
  [[nodiscard]] const double* bias_row(int tau) const {
    return bias_.data() + tau;
  }
  [[nodiscard]] const int* ctw_row(int tau) const { return ctw_.data() + tau; }
  /// Element k of these rows is the minimum of var_row(tau) (resp. of
  /// |bias_row(tau)|) over offset block k, [k * kBlock, k * kBlock +
  /// block_width()); one row holds a multiple of kBlock elements.
  [[nodiscard]] const double* var_min_row(int tau) const {
    return var_min_.data() + min_at(tau);
  }
  [[nodiscard]] const double* abs_bias_min_row(int tau) const {
    return abs_bias_min_.data() + min_at(tau);
  }

 private:
  int levels_ = 0;
  int bmin_ = 0;
  int bmax_ = -1;
  bool penalize_bias_ = true;
  std::vector<int> ctw_;
  std::vector<double> var_;
  std::vector<double> bias_;
  std::size_t min_stride_ = 0;
  std::vector<double> var_min_;
  std::vector<double> abs_bias_min_;

  [[nodiscard]] std::size_t min_at(int tau) const {
    const auto i = static_cast<std::size_t>(tau);
    return i % kBlock * min_stride_ + i / kBlock;
  }
};

/// VAWO output for one layer.
struct VawoResult {
  std::vector<int> ctw;              ///< [rows*cols] crossbar target weights
  std::vector<float> offsets;        ///< [groups_per_col*cols], value of b
  std::vector<std::uint8_t> complemented;  ///< per group, 1 = stored inverted
  std::int64_t groups_per_col = 0;
  /// Summed group objective of the solve. Not serialized: a plan loaded
  /// from disk holds 0 here.
  double total_objective = 0.0;
};

/// Solve one offset group.
///
/// `ntw`/`g2` hold the m' (<= m) weights of the group and their squared
/// gradient weights (g2_i = grad_i^2); all ntw values must lie in
/// [0, table.weight_levels()]. Returns the chosen offset, complement flag
/// and CTWs through the out-parameters, and the objective value achieved.
/// Throws ContractViolation on an empty or mismatched group, an
/// out-of-range NTW, or a negative g2 (the out-parameters are never left
/// unwritten on a successful return). A group with a g2 of +inf or NaN has
/// no finite candidate and gets the first enumerated one, as in the
/// per-candidate enumeration.
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

namespace detail {

/// vawo_solve_group and vawo_layer on a chosen instruction-set copy of
/// the offset block sweep (nn/kernel_isa.h); the public entries run
/// rdo::nn::kernel_isa(). Every copy gives the same bytes; the caller
/// makes sure this CPU can run `isa` (kernel_isa_supported).
double vawo_solve_group(rdo::nn::KernelIsa isa, const std::vector<int>& ntw,
                        const std::vector<double>& g2, const VawoTable& table,
                        bool use_complement, int& best_offset,
                        bool& best_complemented, std::vector<int>& best_ctw);
VawoResult vawo_layer(rdo::nn::KernelIsa isa,
                      const rdo::quant::LayerQuant& lq,
                      const std::vector<double>& grads,
                      const VawoTable& table, const VawoOptions& opt);

}  // namespace detail

}  // namespace rdo::core
