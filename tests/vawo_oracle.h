// The literal per-candidate VAWO procedure (paper §III-B, §III-C): for
// every (form, offset, weight) candidate invert the E[R(v)] LUT and
// re-derive the variance and bias terms. O(forms * 2^bits * m) LUT binary
// searches per group. The table solver in core/vawo.cpp promises the same
// enumeration order, expression shapes and tie-breaking, so it must match
// these loops bit for bit (tests/test_vawo_parity.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/offset.h"
#include "core/vawo.h"
#include "quant/quantizer.h"
#include "rram/rlut.h"

namespace rdo::oracle {

/// Objective of one candidate (offset b, form) for a group; fills `ctw`.
inline double vawo_group_objective(const std::vector<int>& ntw,
                                   const std::vector<double>& grad,
                                   const rram::RLut& lut, int weight_levels,
                                   int b, bool complemented,
                                   bool penalize_bias, std::vector<int>& ctw) {
  double obj = 0.0;
  for (std::size_t i = 0; i < ntw.size(); ++i) {
    const int target_ntw = complemented ? weight_levels - ntw[i] : ntw[i];
    const double target_mean = static_cast<double>(target_ntw - b);
    const int v = lut.invert_mean(target_mean);
    ctw[i] = v;
    const double g2 = grad[i] * grad[i];
    double term = g2 * lut.var(v);
    if (penalize_bias) {
      const double bias = lut.mean(v) - target_mean;
      term += g2 * bias * bias;
    }
    obj += term;
  }
  return obj;
}

/// Solve one group by enumerating every candidate, form-major then offset
/// ascending; the first strictly better candidate wins. `grad` holds the
/// unsquared gradient weights.
inline double vawo_solve_group(const std::vector<int>& ntw,
                               const std::vector<double>& grad,
                               const rram::RLut& lut, int weight_levels,
                               const core::VawoOptions& opt, int& best_offset,
                               bool& best_complemented,
                               std::vector<int>& best_ctw) {
  RDO_CHECK(ntw.size() == grad.size() && !ntw.empty(),
            "oracle::vawo_solve_group: " + std::to_string(ntw.size()) +
                " weights vs " + std::to_string(grad.size()) + " gradients");
  opt.offsets.validate();
  double best = -1.0;
  std::vector<int> ctw(ntw.size());
  const int forms = opt.use_complement ? 2 : 1;
  for (int form = 0; form < forms; ++form) {
    const bool comp = form == 1;
    for (int b = opt.offsets.offset_min(); b <= opt.offsets.offset_max();
         ++b) {
      const double obj = vawo_group_objective(
          ntw, grad, lut, weight_levels, b, comp, opt.penalize_bias, ctw);
      if (best < 0.0 || obj < best) {
        best = obj;
        best_offset = b;
        best_complemented = comp;
        best_ctw = ctw;
      }
    }
  }
  return best;
}

/// Whole-layer VAWO through the per-candidate solver, with the same
/// gradient floor as core::vawo_layer (|dL/dw| floored at 5 % of the
/// layer's mean |dL/dw|, or 1.0 for a gradient-free layer).
inline core::VawoResult vawo_layer(const quant::LayerQuant& lq,
                                   const std::vector<double>& grads,
                                   const rram::RLut& lut,
                                   const core::VawoOptions& opt) {
  const std::int64_t rows = lq.rows, cols = lq.cols;
  opt.offsets.validate();
  core::VawoResult res;
  res.groups_per_col = core::groups_per_column(rows, opt.offsets.m);
  res.ctw.assign(static_cast<std::size_t>(rows * cols), 0);
  res.offsets.assign(static_cast<std::size_t>(res.groups_per_col * cols),
                     0.0f);
  res.complemented.assign(static_cast<std::size_t>(res.groups_per_col * cols),
                          0);
  double mean_abs = 0.0;
  for (double g : grads) mean_abs += std::fabs(g);
  mean_abs /= static_cast<double>(grads.size());
  const double floor = mean_abs > 0.0 ? 0.05 * mean_abs : 1.0;
  for (std::int64_t c = 0; c < cols; ++c) {
    for (std::int64_t g = 0; g < res.groups_per_col; ++g) {
      const std::int64_t r0 = g * opt.offsets.m;
      const std::int64_t r1 = std::min<std::int64_t>(rows, r0 + opt.offsets.m);
      std::vector<int> ntw;
      std::vector<double> grad;
      for (std::int64_t r = r0; r < r1; ++r) {
        ntw.push_back(lq.at(r, c));
        grad.push_back(std::max(
            std::fabs(grads[static_cast<std::size_t>(r * cols + c)]), floor));
      }
      int b = 0;
      bool comp = false;
      std::vector<int> ctw;
      res.total_objective +=
          vawo_solve_group(ntw, grad, lut, lq.levels(), opt, b, comp, ctw);
      for (std::int64_t r = r0; r < r1; ++r) {
        res.ctw[static_cast<std::size_t>(r * cols + c)] =
            ctw[static_cast<std::size_t>(r - r0)];
      }
      res.offsets[static_cast<std::size_t>(g * cols + c)] =
          static_cast<float>(b);
      res.complemented[static_cast<std::size_t>(g * cols + c)] = comp ? 1 : 0;
    }
  }
  return res;
}

}  // namespace rdo::oracle
