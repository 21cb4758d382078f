// Sequential container and residual block.
#pragma once

#include <memory>
#include <utility>

#include "nn/layer.h"

namespace rdo::nn {

/// Linear chain of layers.
class Sequential : public Layer {
 public:
  Sequential() = default;

  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }
  void push(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::vector<Tensor*> buffers() override;
  std::vector<Layer*> children() override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "Sequential"; }

 private:
  std::vector<LayerPtr> layers_;
};

/// Residual block: y = ReLU(main(x) + shortcut(x)).
///
/// `shortcut` may be empty (identity) or a projection (1x1 conv + BN).
class Residual : public Layer {
 public:
  Residual(LayerPtr main, LayerPtr shortcut)
      : main_(std::move(main)), shortcut_(std::move(shortcut)) {}
  explicit Residual(LayerPtr main) : main_(std::move(main)) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  std::vector<Tensor*> buffers() override;
  std::vector<Layer*> children() override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "Residual"; }

 private:
  LayerPtr main_;
  LayerPtr shortcut_;  // nullptr => identity
  Tensor relu_mask_;
};

}  // namespace rdo::nn
