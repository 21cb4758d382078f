// Post-writing tuning (paper §III-D).
//
// After programming, the CRWs are known; the digital offsets b_i become
// the only trainable parameters of the deployed network. By the column
// identity sum_i x_i (V_i + b) = sum_i x_i V_i + b sum_i x_i, the offset
// gradient is dL/db = sum_n (sum_{i in group} x_{n,i}) * delta_n (Eq. 8):
// the crossbar layers of the twin run backward in MatrixOp's
// offset-gradient mode, which accumulates exactly that per group and
// column and never builds dW. A sign flip for complemented groups and the
// per-layer dequantization scale turn it into dL/db.
//
// The raw gradient magnitude varies by orders of magnitude across layers,
// so the update is RMS-normalized per layer per batch: this is the
// practical instantiation of the paper's learning rate eta and makes PWT
// converge for every network without per-model tuning. Offsets are kept
// in float during tuning (projected onto the register range each step)
// and snapped to the 8-bit register grid by the backend's tune()
// afterwards. The loop runs entirely on the backend's private twin
// network, so the caller's network is untouched.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "core/backend.h"
#include "core/check.h"
#include "nn/loss.h"
#include "obs/trace.h"

namespace rdo::core {

namespace {

/// Holds every crossbar layer of the twin in offset-gradient mode for the
/// tuning loop and returns them to dW mode on any exit.
class OffsetGradMode {
 public:
  OffsetGradMode(std::vector<EffectiveWeightBackend::LayerState>& layers,
                 const DeploymentPlan& plan)
      : layers_(layers) {
    for (EffectiveWeightBackend::LayerState& ls : layers_) {
      ls.op->set_offset_group_size(plan.opt.offsets.m);
    }
  }
  ~OffsetGradMode() {
    for (EffectiveWeightBackend::LayerState& ls : layers_) {
      ls.op->set_offset_group_size(0);
    }
  }
  OffsetGradMode(const OffsetGradMode&) = delete;
  OffsetGradMode& operator=(const OffsetGradMode&) = delete;

 private:
  std::vector<EffectiveWeightBackend::LayerState>& layers_;
};

}  // namespace

double signed_offset_gradient(const PlanLayer& pl, std::span<float> grad) {
  const std::int64_t cols = pl.lq.cols;
  RDO_CHECK(grad.size() ==
                static_cast<std::size_t>(pl.assign.groups_per_col * cols),
            "signed_offset_gradient: gradient does not match the layer's "
            "offset registers");
  double sq = 0.0;
  for (std::size_t gi = 0; gi < grad.size(); ++gi) {
    const float sign = pl.assign.complemented[gi] ? -1.0f : 1.0f;
    grad[gi] *= sign * pl.lq.scale;
    sq += static_cast<double>(grad[gi]) * grad[gi];
  }
  return sq;
}

void EffectiveWeightBackend::run_pwt(const rdo::nn::DataView& train) {
  const PwtOptions& popt = plan_.opt.pwt;
  const std::int64_t n =
      popt.max_samples > 0
          ? std::min<std::int64_t>(popt.max_samples, train.size())
          : train.size();
  rdo::nn::Rng rng = rdo::nn::Rng(plan_.opt.seed).split(0x9917);
  rdo::nn::SoftmaxCrossEntropy loss;
  const float lo = static_cast<float>(plan_.opt.offsets.offset_min());
  const float hi = static_cast<float>(plan_.opt.offsets.offset_max());

  std::vector<std::int64_t> order(static_cast<std::size_t>(train.size()));
  std::iota(order.begin(), order.end(), 0);

  const OffsetGradMode offset_mode(layers_, plan_);

  float lr = kPwtLr;
  for (int epoch = 0; epoch < popt.epochs; ++epoch) {
    rdo::obs::TraceSpan epoch_span("pwt:epoch", "deploy");
    epoch_span.arg("epoch", epoch);
    double epoch_loss = 0.0;
    std::int64_t epoch_batches = 0;
    std::shuffle(order.begin(), order.end(), rng.engine());
    for (std::int64_t start = 0; start < n; start += kPwtBatchSize) {
      rdo::obs::TraceSpan batch_span("pwt:batch", "deploy");
      batch_span.arg("start", start);
      const std::int64_t end = std::min(n, start + kPwtBatchSize);
      const rdo::nn::Batch b = rdo::nn::take_batch(
          train, std::span(order.begin() + start, order.begin() + end));

      for (LayerState& ls : layers_) {
        std::ranges::fill(ls.op->offset_grad(), 0.0f);
      }
      // Eval-mode forward: the deployed accelerator runs with frozen
      // batch-norm statistics; PWT tunes offsets at that operating point.
      rdo::nn::Tensor logits = net_->forward(b.images, /*train=*/false);
      epoch_loss += loss.forward(logits, b.labels);
      ++epoch_batches;
      net_->backward_params(loss.backward());

      for (std::size_t li = 0; li < layers_.size(); ++li) {
        const PlanLayer& pl = plan_.layers[li];
        LayerState& ls = layers_[li];
        const std::int64_t cols = pl.lq.cols;
        const std::int64_t groups = pl.assign.groups_per_col;
        // dL/db per group (Eq. 8 with the dequantization scale folded in).
        const std::span<float> gb = ls.op->offset_grad();
        const double sq = signed_offset_gradient(pl, gb);
        const float rms = static_cast<float>(
            std::sqrt(sq / static_cast<double>(groups * cols)) + 1e-12);
        for (std::int64_t g = 0; g < groups; ++g) {
          for (std::int64_t c = 0; c < cols; ++c) {
            const std::size_t gi = static_cast<std::size_t>(g * cols + c);
            float delta = -lr * gb[gi] / rms;
            // Project onto the representable offset-register range.
            const float b_old = ls.offsets[gi];
            const float b_new = std::clamp(b_old + delta, lo, hi);
            delta = b_new - b_old;
            if (delta != 0.0f) {
              ls.offsets[gi] = b_new;
              apply_group_delta(li, c, g, delta);
              ++stats_.pwt_offset_updates;
            }
          }
        }
      }
    }
    lr *= 0.5f;  // simple decay; two epochs suffice in practice
    ++stats_.pwt_epochs;
    stats_.pwt_batches += epoch_batches;
    // Mean training loss per epoch: the convergence trace recorded in
    // structured results (deterministic — the forward pass is seeded).
    stats_.pwt_epoch_loss.push_back(static_cast<float>(
        epoch_batches > 0 ? epoch_loss / static_cast<double>(epoch_batches)
                          : 0.0));
  }
  for (rdo::nn::Param* p : net_->params()) p->zero_grad();
}

}  // namespace rdo::core
