#include "nn/activations.h"

namespace rdo::nn {

void relu_with_mask(const float* x, float* y, float* mask, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const bool pass = x[i] > 0.0f;
    mask[i] = pass ? 1.0f : 0.0f;
    y[i] = pass ? x[i] : 0.0f;
  }
}

Tensor ReLU::forward(const Tensor& x, bool /*train*/) {
  Tensor y(x.shape());
  if (mask_.shape() != x.shape()) mask_ = Tensor(x.shape());
  relu_with_mask(x.data(), y.data(), mask_.data(), x.size());
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor g(grad_out.shape());
  const float* go = grad_out.data();
  const float* m = mask_.data();
  float* gd = g.data();
  for (std::int64_t i = 0; i < g.size(); ++i) gd[i] = go[i] * m[i];
  return g;
}

Tensor Flatten::forward(const Tensor& x, bool /*train*/) {
  cached_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.size() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(cached_shape_);
}

}  // namespace rdo::nn
