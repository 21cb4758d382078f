#include "core/analysis.h"

#include <cmath>

namespace rdo::core {

LayerRisk assignment_risk(const rdo::quant::LayerQuant& lq,
                          const VawoResult& assign,
                          const rdo::rram::RLut& lut) {
  LayerRisk risk;
  const std::int64_t rows = lq.rows, cols = lq.cols;
  const int maxw = lq.levels();
  // Infer the group height from the assignment geometry (ceil division).
  const std::int64_t m =
      (rows + assign.groups_per_col - 1) / assign.groups_per_col;
  double total = 0.0;
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t g = r / m;
    for (std::int64_t c = 0; c < cols; ++c) {
      const std::size_t gi = static_cast<std::size_t>(g * cols + c);
      const std::size_t wi = static_cast<std::size_t>(r * cols + c);
      const int ntw = lq.at(r, c);
      const double target =
          assign.complemented[gi] ? maxw - ntw : ntw;
      const int v = assign.ctw[wi];
      const double bias =
          lut.mean(v) + assign.offsets[gi] - target;
      total += lut.var(v) + bias * bias;
    }
  }
  risk.mean_sq_dev = total / static_cast<double>(rows * cols);
  risk.rms_relative =
      std::sqrt(risk.mean_sq_dev) / static_cast<double>(maxw);
  return risk;
}

std::vector<LayerRisk> deployment_risk(const DeploymentPlan& plan) {
  std::vector<LayerRisk> risks;
  risks.reserve(plan.layers.size());
  for (const PlanLayer& pl : plan.layers) {
    risks.push_back(assignment_risk(pl.lq, pl.assign, plan.lut));
  }
  return risks;
}

double network_risk(const DeploymentPlan& plan) {
  double total = 0.0;
  double weights = 0.0;
  for (const PlanLayer& pl : plan.layers) {
    const LayerRisk r = assignment_risk(pl.lq, pl.assign, plan.lut);
    const double n = static_cast<double>(pl.lq.rows * pl.lq.cols);
    total += r.mean_sq_dev * n;
    weights += n;
  }
  const int maxw = plan.layers.front().lq.levels();
  return std::sqrt(total / weights) / static_cast<double>(maxw);
}

}  // namespace rdo::core
