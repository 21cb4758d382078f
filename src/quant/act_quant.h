// Activation fake-quantization layer (8-bit inputs, paper §IV).
//
// Disabled by default so a network trains in float; the deployment
// pipeline calibrates and enables it, after which activations snap to the
// 2^bits-level grid used by the DAC-driven wordlines. Backward uses the
// straight-through estimator so PWT can still propagate gradients.
#pragma once

#include "nn/layer.h"

namespace rdo::quant {

class ActQuant : public rdo::nn::Layer {
 public:
  /// `bits` in [1, 22]; throws std::invalid_argument otherwise.
  explicit ActQuant(int bits = 8);

  rdo::nn::Tensor forward(const rdo::nn::Tensor& x, bool train) override;
  rdo::nn::Tensor backward(const rdo::nn::Tensor& grad_out) override;
  [[nodiscard]] std::unique_ptr<rdo::nn::Layer> clone() const override {
    return std::make_unique<ActQuant>(*this);
  }
  [[nodiscard]] std::string name() const override { return "ActQuant"; }

  /// Enable quantization with a calibrated full-scale activation value.
  void calibrate(float max_abs);
  /// Turn quantization off and restart range observation from scratch.
  void disable();
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] float observed_max() const { return observed_max_; }
  /// Quantization step of the calibrated grid (meaningful when enabled).
  [[nodiscard]] float step() const { return step_; }
  /// One activation on the calibrated grid, the scalar form of forward()
  /// when enabled: round_clamp(x / step, levels) * step, i.e.
  /// std::clamp(std::round(x / step), 0, 2^bits - 1) * step bit for bit.
  [[nodiscard]] float quantize(float x) const;

 private:
  int bits_;
  bool enabled_ = false;
  float step_ = 1.0f;
  float observed_max_ = 0.0f;  ///< running max seen while disabled
};

}  // namespace rdo::quant
