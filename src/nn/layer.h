// Layer interface for the define-by-structure network graph.
//
// Layers own their parameters and cache whatever they need from `forward`
// to compute `backward`. The graph is static (Sequential + nested blocks);
// this is all the autograd the reproduction needs, and it keeps gradient
// flow explicit — which matters because PWT (post-writing tuning) re-uses
// exactly this path to train digital offsets.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/param.h"
#include "nn/tensor.h"

namespace rdo::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass. `train` enables training-time behaviour (e.g. batch-norm
  /// batch statistics). Implementations must cache inputs needed by
  /// backward.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Backward pass: consumes dL/d(output), accumulates parameter gradients,
  /// returns dL/d(input). Must be called after a matching forward.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Backward pass for a caller that discards dL/d(input), such as the
  /// loop driving a whole network: accumulates exactly the parameter
  /// gradients backward() would, but may skip computing the input
  /// gradient. Sequential skips it for its first parameterised layer and
  /// the parameter-free layers before it; Dense and Conv2D skip their own.
  virtual void backward_params(const Tensor& grad_out) {
    (void)backward(grad_out);
  }

  /// All trainable parameters of this layer (including nested layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Persistent non-trainable state (e.g. batch-norm running statistics).
  /// Serialized alongside params so a saved model evaluates identically
  /// after loading.
  virtual std::vector<Tensor*> buffers() { return {}; }

  /// Direct child layers (for recursive traversal of blocks).
  virtual std::vector<Layer*> children() { return {}; }

  /// Deep copy: an independent, identically-constructed layer holding
  /// copies of all parameters and buffers. The deployment pipeline uses
  /// this to work on a private twin of a trained network, so the caller's
  /// network is never mutated.
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Recursively collect `layer` and all transitive children in definition
/// order.
void collect_layers(Layer* layer, std::vector<Layer*>& out);

/// Every layer of `net` (itself included) that is a T, in the order of
/// collect_layers.
template <class T>
std::vector<T*> layers_of(Layer& net) {
  std::vector<Layer*> all;
  collect_layers(&net, all);
  std::vector<T*> out;
  for (Layer* l : all) {
    if (auto* t = dynamic_cast<T*>(l)) out.push_back(t);
  }
  return out;
}

}  // namespace rdo::nn
