// Interface implemented by layers whose weights map onto RRAM crossbars.
//
// The deployment pipeline (src/core) treats every Dense and Conv2D layer as
// a fan_in x fan_out weight matrix: rows drive crossbar wordlines, columns
// drive bitlines. Both layers store their weight parameter in exactly that
// orientation, so the matrix has one view: weights(), a row-major span in
// which element (row, col) is weights()[row * fan_out() + col] (the same
// arithmetic as Tensor::at), and weight_grads(), the gradient in the same
// layout. Quantization, compilation, the backends, PWT and the baselines
// all read and write a layer through these spans. matrix_ops(net) lists a
// network's crossbar layers in definition order.
//
// Gradient modes. Normally backward() accumulates the full weight gradient
// dW[fan_in, fan_out] into weight_grads(). Post-writing tuning only
// trains the digital offsets, one per group of m consecutive rows and per
// column, and by the column identity sum_i x_i (V_i + b) =
// sum_i x_i V_i + b sum_i x_i (paper Eq. 8) needs only
//   G[g, c] = sum_n (sum_{i in g} x[n, i]) * delta[n, c],
// a GEMM over fan_in/m group-summed inputs instead of over every weight.
// set_offset_group_size(m) switches a layer to that offset-gradient mode:
// backward() then accumulates G into offset_grad() and leaves dW and the
// bias gradient untouched. Training, compile-time mean gradients and VAWO
// use the normal mode. tests/test_offset_grad.cpp checks G against the
// dW-fold sum_{i in g} dW[i, c].
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/layer.h"
#include "nn/param.h"

namespace rdo::nn {

class MatrixOp {
 public:
  virtual ~MatrixOp() = default;

  /// Number of matrix rows (= crossbar wordlines consumed).
  [[nodiscard]] virtual std::int64_t fan_in() const = 0;
  /// Number of matrix columns (= output channels / units).
  [[nodiscard]] virtual std::int64_t fan_out() const = 0;

  /// The weight parameter (for freezing / optimizer exclusion). Its value
  /// and grad are stored row-major as [fan_in, fan_out].
  virtual Param& weight_param() = 0;
  [[nodiscard]] virtual const Param& weight_param() const = 0;

  /// Row-major [fan_in, fan_out] span over the weights: element (row, col)
  /// is weights()[row * fan_out() + col].
  std::span<float> weights() {
    Tensor& w = weight_param().value;
    return {w.data(), static_cast<std::size_t>(w.size())};
  }
  [[nodiscard]] std::span<const float> weights() const {
    const Tensor& w = weight_param().value;
    return {w.data(), static_cast<std::size_t>(w.size())};
  }
  /// The accumulated weight gradient, in the layout of weights().
  std::span<float> weight_grads() {
    Tensor& g = weight_param().grad;
    return {g.data(), static_cast<std::size_t>(g.size())};
  }

  /// m > 0 enters offset-gradient mode with groups of m consecutive rows
  /// (the last group may be shorter) and zeroes offset_grad(); m == 0
  /// returns to normal dW mode and releases it.
  void set_offset_group_size(std::int64_t m) {
    offset_m_ = m;
    const std::int64_t groups = m > 0 ? (fan_in() + m - 1) / m : 0;
    offset_grad_.assign(static_cast<std::size_t>(groups * fan_out()), 0.0f);
  }
  /// Row-major [groups, fan_out] offset gradient G accumulated by
  /// backward() in offset-gradient mode.
  std::span<float> offset_grad() { return offset_grad_; }

 protected:
  std::int64_t offset_m_ = 0;
  std::vector<float> offset_grad_;
};

/// The crossbar layers of `net`, in definition order.
inline std::vector<MatrixOp*> matrix_ops(Layer& net) {
  return layers_of<MatrixOp>(net);
}

}  // namespace rdo::nn
