#include "nn/sequential.h"

#include "nn/activations.h"

namespace rdo::nn {

void collect_layers(Layer* layer, std::vector<Layer*>& out) {
  out.push_back(layer);
  for (Layer* child : layer->children()) collect_layers(child, out);
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  if (layers_.empty()) return x;
  Tensor h = layers_.front()->forward(x, train);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    h = layers_[i]->forward(h, train);
  }
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::backward_params(const Tensor& grad_out) {
  // Layers before the first parameterised one accumulate nothing, and
  // nobody reads the input gradient that one would return.
  std::size_t first = 0;
  while (first < layers_.size() && layers_[first]->params().empty()) ++first;
  if (first == layers_.size()) return;
  Tensor g = grad_out;
  for (std::size_t i = layers_.size() - 1; i > first; --i) {
    g = layers_[i]->backward(g);
  }
  layers_[first]->backward_params(g);
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& l : layers_) {
    for (Param* p : l->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::buffers() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* b : l->buffers()) out.push_back(b);
  }
  return out;
}

std::vector<Layer*> Sequential::children() {
  std::vector<Layer*> out;
  out.reserve(layers_.size());
  for (auto& l : layers_) out.push_back(l.get());
  return out;
}

std::unique_ptr<Layer> Sequential::clone() const {
  auto copy = std::make_unique<Sequential>();
  for (const LayerPtr& l : layers_) copy->layers_.push_back(l->clone());
  return copy;
}

Tensor Residual::forward(const Tensor& x, bool train) {
  Tensor main_out = main_->forward(x, train);
  Tensor short_out = shortcut_ ? shortcut_->forward(x, train) : x;
  Tensor y = main_out;
  y.axpy(1.0f, short_out);
  if (relu_mask_.shape() != y.shape()) relu_mask_ = Tensor(y.shape());
  relu_with_mask(y.data(), y.data(), relu_mask_.data(), y.size());
  return y;
}

Tensor Residual::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::int64_t i = 0; i < g.size(); ++i) g[i] *= relu_mask_[i];
  Tensor grad_main = main_->backward(g);
  if (shortcut_) {
    Tensor grad_short = shortcut_->backward(g);
    grad_main.axpy(1.0f, grad_short);
  } else {
    grad_main.axpy(1.0f, g);
  }
  return grad_main;
}

std::vector<Param*> Residual::params() {
  std::vector<Param*> out = main_->params();
  if (shortcut_) {
    for (Param* p : shortcut_->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Residual::buffers() {
  std::vector<Tensor*> out = main_->buffers();
  if (shortcut_) {
    for (Tensor* b : shortcut_->buffers()) out.push_back(b);
  }
  return out;
}

std::vector<Layer*> Residual::children() {
  std::vector<Layer*> out{main_.get()};
  if (shortcut_) out.push_back(shortcut_.get());
  return out;
}

std::unique_ptr<Layer> Residual::clone() const {
  auto copy = std::make_unique<Residual>(
      main_->clone(), shortcut_ ? shortcut_->clone() : nullptr);
  copy->relu_mask_ = relu_mask_;
  return copy;
}

}  // namespace rdo::nn
