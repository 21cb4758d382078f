// Fully-connected layer.
#pragma once

#include "nn/layer.h"
#include "nn/matrix_op.h"
#include "nn/rng.h"

namespace rdo::nn {

/// Dense (fully connected) layer: y = x W + bias.
///
/// Weight is stored as [in, out] — directly the crossbar matrix orientation
/// (rows = wordlines, columns = bitlines), so MatrixOp::weights() is
/// trivial.
class Dense : public Layer, public MatrixOp {
 public:
  Dense(std::int64_t in, std::int64_t out, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Dense>(*this);
  }
  [[nodiscard]] std::string name() const override { return "Dense"; }

  // MatrixOp
  [[nodiscard]] std::int64_t fan_in() const override { return in_; }
  [[nodiscard]] std::int64_t fan_out() const override { return out_; }
  Param& weight_param() override { return weight_; }
  [[nodiscard]] const Param& weight_param() const override { return weight_; }
  Param& bias_param() { return bias_; }

 private:
  std::int64_t in_ = 0;
  std::int64_t out_ = 0;
  bool has_bias_ = true;
  Param weight_;
  Param bias_;
  Tensor cached_in_;
};

}  // namespace rdo::nn
