// Pre-deployment risk analysis.
//
// Before writing a single device, the statistical LUT lets us compute the
// expected squared NRW deviation each assignment will produce — the exact
// quantity VAWO minimizes. This turns the method into a *predictive*
// tool: a designer can rank (scheme, m, cell, sigma) configurations by
// expected weight error without running a full accuracy evaluation, and
// the test suite verifies the prediction orders real accuracies
// correctly.
#pragma once

#include <vector>

#include "core/plan.h"

namespace rdo::core {

struct LayerRisk {
  /// Mean over the layer's weights of E[(NRW - NTW)^2] in integer-weight
  /// units (variance of the chosen CTW plus squared residual bias).
  double mean_sq_dev = 0.0;
  /// sqrt(mean_sq_dev) relative to the full integer range — a
  /// scale-free severity indicator (~0 good, ~0.3+ catastrophic).
  double rms_relative = 0.0;
};

/// Risk of one layer's assignment under the device statistics in `lut`.
LayerRisk assignment_risk(const rdo::quant::LayerQuant& lq,
                          const VawoResult& assign,
                          const rdo::rram::RLut& lut);

/// Per-layer risks of a compiled DeploymentPlan.
std::vector<LayerRisk> deployment_risk(const DeploymentPlan& plan);

/// Network-level scalar: weight-count-weighted mean of the layer
/// mean_sq_dev values, normalized to the integer range (rms_relative of
/// the whole network).
double network_risk(const DeploymentPlan& plan);

}  // namespace rdo::core
