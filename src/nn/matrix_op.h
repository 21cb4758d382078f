// Interface implemented by layers whose weights map onto RRAM crossbars.
//
// The deployment pipeline (src/core) treats every Dense and Conv2D layer as
// a fan_in x fan_out weight matrix: rows drive crossbar wordlines, columns
// drive bitlines. This interface exposes that matrix view plus the matching
// gradient view, independent of how the layer stores its weights natively.
//
// Gradient modes. Normally backward() accumulates the full weight gradient
// dW[fan_in, fan_out] into weight_param().grad. Post-writing tuning only
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

#include "nn/param.h"

namespace rdo::nn {

class MatrixOp {
 public:
  virtual ~MatrixOp() = default;

  /// Number of matrix rows (= crossbar wordlines consumed).
  [[nodiscard]] virtual std::int64_t fan_in() const = 0;
  /// Number of matrix columns (= output channels / units).
  [[nodiscard]] virtual std::int64_t fan_out() const = 0;

  /// Read weight element at matrix position (row, col).
  [[nodiscard]] virtual float weight_at(std::int64_t row,
                                        std::int64_t col) const = 0;
  /// Write weight element at matrix position (row, col).
  virtual void set_weight_at(std::int64_t row, std::int64_t col, float v) = 0;

  /// Read the accumulated gradient at matrix position (row, col).
  [[nodiscard]] virtual float weight_grad_at(std::int64_t row,
                                             std::int64_t col) const = 0;

  /// The underlying weight parameter (for freezing / optimizer exclusion).
  /// Its value and grad are stored row-major as [fan_in, fan_out].
  virtual Param& weight_param() = 0;

  /// Row-major [fan_in, fan_out] span over the weights: element (row, col)
  /// is weights()[row * fan_out() + col]. For loops over a whole layer,
  /// where a virtual call per element would dominate.
  std::span<float> weights() {
    Tensor& w = weight_param().value;
    return {w.data(), static_cast<std::size_t>(w.size())};
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

}  // namespace rdo::nn
