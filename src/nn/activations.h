// Elementwise activation layers and shape adapters.
#pragma once

#include "nn/layer.h"

namespace rdo::nn {

/// y[i] = x[i] > 0 ? x[i] : +0.0 and mask[i] = x[i] > 0 ? 1 : 0, without a
/// branch per element (NaN and -0.0 map to +0.0 with mask 0). `y` may
/// alias `x`.
void relu_with_mask(const float* x, float* y, float* mask, std::int64_t n);

/// Rectified linear unit.
class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>(*this);
  }
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  Tensor mask_;
};

/// Flattens [N, ...] to [N, features].
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>(*this);
  }
  [[nodiscard]] std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::int64_t> cached_shape_;
};

}  // namespace rdo::nn
