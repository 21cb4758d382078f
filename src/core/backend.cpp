#include "core/backend.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/check.h"
#include "obs/trace.h"

namespace rdo::core {

EffectiveWeightBackend::EffectiveWeightBackend(const DeploymentPlan& plan,
                                               const rdo::nn::Layer& src,
                                               bool keep_cell_values)
    : plan_(plan), net_(src.clone()), keep_cells_(keep_cell_values) {
  for (rdo::nn::MatrixOp* op : rdo::nn::matrix_ops(*net_)) {
    LayerState ls;
    ls.op = op;
    layers_.push_back(std::move(ls));
  }
  act_quants_ = rdo::nn::layers_of<rdo::quant::ActQuant>(*net_);
  RDO_CHECK(layers_.size() == plan_.layers.size(),
            "EffectiveWeightBackend: network does not match the plan "
            "(crossbar layer count)");
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const PlanLayer& pl = plan_.layers[li];
    RDO_CHECK(layers_[li].op->fan_in() == pl.lq.rows &&
                  layers_[li].op->fan_out() == pl.lq.cols,
              "EffectiveWeightBackend: network does not match the plan "
              "(layer geometry)");
    // Move the twin to the plan's quantized operating point.
    rdo::quant::apply_quantized(*layers_[li].op, pl.lq);
  }
  for (auto* aq : act_quants_) aq->disable();
  if (!act_quants_.empty()) {
    RDO_CHECK(act_quants_.size() == plan_.act_max_abs.size(),
              "EffectiveWeightBackend: network does not match the plan "
              "(activation quantizer count)");
    for (std::size_t i = 0; i < act_quants_.size(); ++i) {
      act_quants_[i]->calibrate(plan_.act_max_abs[i]);
    }
  }
}

void EffectiveWeightBackend::program_cycle(std::uint64_t cycle_salt) {
  rdo::obs::TraceSpan span("deploy:program", "deploy", &stats_.program_s);
  span.arg("cycle", static_cast<std::int64_t>(cycle_salt));
  rdo::nn::Rng rng =
      rdo::nn::Rng(plan_.opt.seed).split(0xC0DEull + cycle_salt * 7919ull);
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const PlanLayer& pl = plan_.layers[li];
    LayerState& ls = layers_[li];
    rdo::obs::TraceSpan layer_span("program:layer", "deploy");
    layer_span.arg("layer", static_cast<std::int64_t>(li));
    layer_span.arg("weights", static_cast<std::int64_t>(pl.assign.ctw.size()));
    rdo::nn::Rng lrng = rng.split(li);
    const std::size_t n = pl.assign.ctw.size();
    const auto cpw = static_cast<std::size_t>(plan_.prog.cells_per_weight());
    ls.crw.resize(n);
    if (keep_cells_) ls.cells.resize(n * cpw);
    plan_.prog.program_weights(pl.assign.ctw, lrng, ls.cells, ls.crw);
    const auto programmed = static_cast<std::int64_t>(n);
    stats_.weights_programmed += programmed;
    stats_.device_pulses += programmed * plan_.prog.cells_per_weight();
    // Each cycle starts from the a-priori (VAWO or zero) offsets; PWT then
    // adapts them to this cycle's CRWs.
    ls.offsets = pl.assign.offsets;
  }
  ++stats_.cycles;
  rdo::obs::trace_counter("device_pulses", stats_.device_pulses);
  apply_effective_weights();
}

void EffectiveWeightBackend::apply_effective_weights() {
  const float maxw = static_cast<float>(plan_.prog.max_weight());
  const int m = plan_.opt.offsets.m;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const PlanLayer& pl = plan_.layers[li];
    LayerState& ls = layers_[li];
    const std::int64_t rows = pl.lq.rows, cols = pl.lq.cols;
    const std::span<float> w = ls.op->weights();
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int64_t g = group_of_row(r, m);
      for (std::int64_t c = 0; c < cols; ++c) {
        const std::size_t gi = static_cast<std::size_t>(g * cols + c);
        const std::size_t wi = static_cast<std::size_t>(r * cols + c);
        const float b = ls.offsets[gi];
        const double v = ls.crw[wi];
        const double nrw = pl.assign.complemented[gi]
                               ? static_cast<double>(maxw) - v - b
                               : v + b;
        w[wi] = pl.lq.dequant(static_cast<float>(nrw));
      }
    }
  }
  weights_deployed_ = true;
}

void EffectiveWeightBackend::apply_group_delta(std::size_t li,
                                               std::int64_t c,
                                               std::int64_t g,
                                               float delta_b) {
  const PlanLayer& pl = plan_.layers[li];
  LayerState& ls = layers_[li];
  const std::int64_t cols = pl.lq.cols;
  const std::size_t gi = static_cast<std::size_t>(g * cols + c);
  const float sign = pl.assign.complemented[gi] ? -1.0f : 1.0f;
  const float dw = sign * pl.lq.scale * delta_b;
  const int m = plan_.opt.offsets.m;
  const std::int64_t r0 = g * m;
  const std::int64_t r1 = std::min<std::int64_t>(pl.lq.rows, r0 + m);
  const std::span<float> w = ls.op->weights();
  for (std::int64_t r = r0; r < r1; ++r) {
    w[static_cast<std::size_t>(r * cols + c)] += dw;
  }
}

void EffectiveWeightBackend::tune(const rdo::nn::DataView& train) {
  if (!scheme_uses_pwt(plan_.opt.scheme)) return;
  RDO_CHECK(weights_deployed_,
            "EffectiveWeightBackend: program_cycle() first");
  rdo::obs::TraceSpan span("deploy:tune", "deploy", &stats_.tune_s);
  const float lo = static_cast<float>(plan_.opt.offsets.offset_min());
  const float hi = static_cast<float>(plan_.opt.offsets.offset_max());
  if (plan_.opt.pwt.mean_init) {
    // Closed-form warm start from the measured CRWs: the offset that
    // zeroes the mean NRW deviation of each group.
    const int maxw = plan_.prog.max_weight();
    const int m = plan_.opt.offsets.m;
    for (std::size_t li = 0; li < layers_.size(); ++li) {
      const PlanLayer& pl = plan_.layers[li];
      LayerState& ls = layers_[li];
      const std::int64_t rows = pl.lq.rows, cols = pl.lq.cols;
      for (std::int64_t c = 0; c < cols; ++c) {
        for (std::int64_t g = 0; g < pl.assign.groups_per_col; ++g) {
          const std::size_t gi = static_cast<std::size_t>(g * cols + c);
          const std::int64_t r0 = g * m;
          const std::int64_t r1 = std::min<std::int64_t>(rows, r0 + m);
          double acc = 0.0;
          for (std::int64_t r = r0; r < r1; ++r) {
            const int ntw = pl.lq.at(r, c);
            const double target =
                pl.assign.complemented[gi] ? maxw - ntw : ntw;
            acc += target - ls.crw[static_cast<std::size_t>(r * cols + c)];
          }
          ls.offsets[gi] = std::clamp(
              static_cast<float>(acc / static_cast<double>(r1 - r0)), lo,
              hi);
        }
      }
    }
    apply_effective_weights();
  }
  run_pwt(train);
  // Snap tuned offsets onto the signed offset-register grid and rebuild
  // the effective weights from scratch (removes incremental-update drift).
  for (LayerState& ls : layers_) {
    for (float& b : ls.offsets) b = std::clamp(std::round(b), lo, hi);
  }
  apply_effective_weights();
}

float EffectiveWeightBackend::evaluate(const rdo::nn::DataView& test,
                                       std::int64_t batch) {
  RDO_CHECK(weights_deployed_,
            "EffectiveWeightBackend: program_cycle() first");
  rdo::obs::TraceSpan span("deploy:evaluate", "deploy", &stats_.eval_s);
  span.arg("batch", batch);
  const float acc = rdo::nn::evaluate(*net_, test, batch).accuracy;
  stats_.eval_seconds.push_back(span.seconds());
  span.arg("accuracy", static_cast<double>(acc));
  stats_.eval_accuracy.push_back(acc);
  return acc;
}

}  // namespace rdo::core
