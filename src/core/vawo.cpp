#include "core/vawo.h"

#include <cmath>
#include <string>

#include "core/check.h"

namespace rdo::core {

namespace {

/// Gradient floor: weights whose mean gradient is numerically zero (dead
/// units, converged directions) would make the group objective identically
/// zero and leave the offset to tie-breaking, producing arbitrarily bad
/// CTWs for weights that still matter at inference time. Their |g| is
/// floored at this fraction of the layer's mean |g| (DESIGN.md §5, item 7).
constexpr double kGradFloorFrac = 0.05;

/// Solver core. Accumulates, for each form, the objective of every
/// offset candidate in one weight-outer/offset-inner sweep: the candidates
/// of weight i live in the contiguous table slice starting at its target
/// value tau_i, so the inner loop is a branch-free gather + multiply-add
/// the compiler can vectorize, and adjacent offsets share all per-weight
/// table work (offset b = offset_max - j reads element tau_i + j).
///
/// Bit-exactness with the per-candidate oracle (tests/vawo_oracle.h): for
/// a fixed offset the per-weight terms are accumulated in the same weight
/// order with identically shaped expressions (g2*var, then
/// += g2*bias*bias with the raw bias — never a pre-squared bias, which
/// would round differently), and the winner scan replicates the oracle's
/// enumeration order and strict-< tie-breaking.
/// With penalize_bias off the bias row is all zeros and the += adds +0.0,
/// which never changes a finite sum.
double solve_group_table(const int* ntw, const double* g2, std::size_t n,
                         const VawoTable& table, bool use_complement,
                         std::vector<double>& acc, int& best_offset,
                         bool& best_complemented, std::vector<int>& best_ctw) {
  const int nb = table.offset_count();
  const int levels = table.weight_levels();
  const int forms = use_complement ? 2 : 1;
  acc.assign(static_cast<std::size_t>(nb) * static_cast<std::size_t>(forms),
             0.0);
  for (int form = 0; form < forms; ++form) {
    double* a = acc.data() + static_cast<std::size_t>(form) *
                                 static_cast<std::size_t>(nb);
    for (std::size_t i = 0; i < n; ++i) {
      const int tau = form == 1 ? levels - ntw[i] : ntw[i];
      const double g = g2[i];
      const double* vr = table.var_row(tau);
      const double* br = table.bias_row(tau);
      for (int j = 0; j < nb; ++j) {
        double term = g * vr[j];
        term += g * br[j] * br[j];
        a[j] += term;
      }
    }
  }
  double best = -1.0;
  bool found = false;
  for (int form = 0; form < forms; ++form) {
    const double* a = acc.data() + static_cast<std::size_t>(form) *
                                       static_cast<std::size_t>(nb);
    for (int b = table.offset_min(); b <= table.offset_max(); ++b) {
      const double obj = a[table.offset_max() - b];
      if (best < 0.0 || obj < best) {
        best = obj;
        best_offset = b;
        best_complemented = form == 1;
      }
      found = true;
    }
  }
  RDO_CHECK(found, "vawo_solve_group: empty offset enumeration range");
  best_ctw.resize(n);
  const int j = table.offset_max() - best_offset;
  for (std::size_t i = 0; i < n; ++i) {
    const int tau = best_complemented ? levels - ntw[i] : ntw[i];
    best_ctw[i] = table.ctw_row(tau)[j];
  }
  return best;
}

void check_group_shape(std::size_t ntw, std::size_t grad) {
  RDO_CHECK(ntw == grad && ntw != 0,
            "vawo_solve_group: " + std::to_string(ntw) + " weights vs " +
                std::to_string(grad) + " gradients");
}

}  // namespace

VawoTable VawoTable::build(const rdo::rram::RLut& lut, int weight_levels,
                           const OffsetConfig& offsets, bool penalize_bias) {
  offsets.validate();
  RDO_CHECK(weight_levels >= 1,
            "VawoTable: weight_levels = " + std::to_string(weight_levels) +
                " < 1");
  VawoTable t;
  t.levels_ = weight_levels;
  t.bmin_ = offsets.offset_min();
  t.bmax_ = offsets.offset_max();
  t.penalize_bias_ = penalize_bias;
  // Target values span [0 - offset_max, weight_levels - offset_min]:
  // weight_levels + 2^offset_bits entries. Index idx holds target value
  // idx - offset_max, so the row of a weight with target_ntw = tau starts
  // at idx = tau (element j = cost of offset b = offset_max - j).
  const std::size_t size = static_cast<std::size_t>(weight_levels) +
                           static_cast<std::size_t>(t.bmax_ - t.bmin_ + 1);
  t.ctw_.resize(size);
  t.var_.resize(size);
  t.bias_.resize(size);
  for (std::size_t idx = 0; idx < size; ++idx) {
    const double target_mean =
        static_cast<double>(static_cast<int>(idx) - t.bmax_);
    const int v = lut.invert_mean(target_mean);
    t.ctw_[idx] = v;
    t.var_[idx] = lut.var(v);
    t.bias_[idx] = penalize_bias ? lut.mean(v) - target_mean : 0.0;
  }
  return t;
}

double vawo_solve_group(const std::vector<int>& ntw,
                        const std::vector<double>& g2, const VawoTable& table,
                        bool use_complement, int& best_offset,
                        bool& best_complemented, std::vector<int>& best_ctw) {
  check_group_shape(ntw.size(), g2.size());
  for (int w : ntw) {
    RDO_CHECK(w >= 0 && w <= table.weight_levels(),
              "vawo_solve_group: NTW " + std::to_string(w) +
                  " outside [0, " + std::to_string(table.weight_levels()) +
                  "]");
  }
  std::vector<double> acc;
  return solve_group_table(ntw.data(), g2.data(), ntw.size(), table,
                           use_complement, acc, best_offset,
                           best_complemented, best_ctw);
}

VawoResult vawo_layer(const rdo::quant::LayerQuant& lq,
                      const std::vector<double>& grads,
                      const VawoTable& table, const VawoOptions& opt) {
  const std::int64_t rows = lq.rows, cols = lq.cols;
  RDO_CHECK(grads.size() == static_cast<std::size_t>(rows * cols),
            "vawo_layer: " + std::to_string(grads.size()) +
                " gradients for a " + std::to_string(rows) + "x" +
                std::to_string(cols) + " matrix");
  opt.offsets.validate();
  RDO_CHECK(table.weight_levels() == lq.levels() &&
                table.offset_min() == opt.offsets.offset_min() &&
                table.offset_max() == opt.offsets.offset_max() &&
                table.penalize_bias() == opt.penalize_bias,
            "vawo_layer: VawoTable was built for a different LUT/offset "
            "configuration");
  // The table is indexed by NTW, so out-of-range quantized weights would
  // read past it. One pass up front keeps the hot loop check-free.
  for (int w : lq.q) {
    RDO_CHECK(w >= 0 && w <= lq.levels(),
              "vawo_layer: NTW " + std::to_string(w) + " outside [0, " +
                  std::to_string(lq.levels()) + "]");
  }
  VawoResult res;
  res.groups_per_col = groups_per_column(rows, opt.offsets.m);
  res.ctw.assign(static_cast<std::size_t>(rows * cols), 0);
  res.offsets.assign(static_cast<std::size_t>(res.groups_per_col * cols),
                     0.0f);
  res.complemented.assign(static_cast<std::size_t>(res.groups_per_col * cols),
                          0);

  // Per-weight objective weights: |dL/dw| floored at kGradFloorFrac of the
  // layer mean (see the constant above; a gradient-free layer floors at
  // 1.0 so every weight still counts equally), squared here so the hot
  // loop never re-squares.
  double mean_abs = 0.0;
  for (double g : grads) mean_abs += std::fabs(g);
  mean_abs /= static_cast<double>(grads.size());
  const double floor = mean_abs > 0.0 ? kGradFloorFrac * mean_abs : 1.0;
  std::vector<double> g2(grads.size());
  for (std::size_t i = 0; i < grads.size(); ++i) {
    const double w = std::max(std::fabs(grads[i]), floor);
    g2[i] = w * w;
  }

  std::vector<int> ntw;
  std::vector<double> grad;
  std::vector<int> ctw;
  std::vector<double> acc;
  for (std::int64_t c = 0; c < cols; ++c) {
    for (std::int64_t g = 0; g < res.groups_per_col; ++g) {
      const std::int64_t r0 = g * opt.offsets.m;
      const std::int64_t r1 = std::min<std::int64_t>(rows, r0 + opt.offsets.m);
      ntw.clear();
      grad.clear();
      for (std::int64_t r = r0; r < r1; ++r) {
        ntw.push_back(lq.at(r, c));
        grad.push_back(g2[static_cast<std::size_t>(r * cols + c)]);
      }
      int b = 0;
      bool comp = false;
      res.total_objective +=
          solve_group_table(ntw.data(), grad.data(), ntw.size(), table,
                            opt.use_complement, acc, b, comp, ctw);
      for (std::int64_t r = r0; r < r1; ++r) {
        res.ctw[static_cast<std::size_t>(r * cols + c)] =
            ctw[static_cast<std::size_t>(r - r0)];
      }
      res.offsets[static_cast<std::size_t>(g * cols + c)] =
          static_cast<float>(b);
      res.complemented[static_cast<std::size_t>(g * cols + c)] =
          comp ? 1 : 0;
    }
  }
  return res;
}

VawoResult plain_layer(const rdo::quant::LayerQuant& lq, int m) {
  VawoResult res;
  res.groups_per_col = groups_per_column(lq.rows, m);
  res.ctw.assign(lq.q.begin(), lq.q.end());
  res.offsets.assign(static_cast<std::size_t>(res.groups_per_col * lq.cols),
                     0.0f);
  res.complemented.assign(
      static_cast<std::size_t>(res.groups_per_col * lq.cols), 0);
  return res;
}

}  // namespace rdo::core
