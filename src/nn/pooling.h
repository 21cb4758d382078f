// Spatial pooling layers over NCHW tensors.
#pragma once

#include <cstdint>
#include <limits>

#include "nn/layer.h"

namespace rdo::nn {

/// Non-overlapping square-window max pool over one [C, H, W] image.
/// `out` receives [C, H/window, W/window] in row-major order; when
/// `argmax` is non-null it receives, per output element, the index of
/// the winning input within this image.
///
/// Single source of truth for max-pool semantics: both the float
/// MaxPool2D layer and the device-level simulator (sim::NetworkExecutor)
/// call this, so the two paths cannot drift (parity is asserted in
/// tests/test_equivalence.cpp).
template <typename T>
inline void maxpool2d_image(const T* in, std::int64_t c, std::int64_t h,
                            std::int64_t w, std::int64_t window, T* out,
                            std::int64_t* argmax = nullptr) {
  const std::int64_t oh = h / window, ow = w / window;
  std::int64_t oi = 0;
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const T* img = in + ch * h * w;
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox, ++oi) {
        T best = -std::numeric_limits<T>::infinity();
        std::int64_t best_idx = 0;
        for (std::int64_t ky = 0; ky < window; ++ky) {
          const std::int64_t row = (oy * window + ky) * w + ox * window;
          for (std::int64_t kx = 0; kx < window; ++kx) {
            // Selects, not a branch: pooled activations are often ties
            // at zero, and a mispredicted branch costs more than both.
            const T v = img[row + kx];
            const bool take = v > best;
            best = take ? v : best;
            best_idx = take ? ch * h * w + row + kx : best_idx;
          }
        }
        out[oi] = best;
        if (argmax != nullptr) argmax[oi] = best_idx;
      }
    }
  }
}

/// Non-overlapping max pooling with a square window.
class MaxPool2D : public Layer {
 public:
  explicit MaxPool2D(std::int64_t window) : window_(window) {}

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2D>(*this);
  }
  [[nodiscard]] std::string name() const override { return "MaxPool2D"; }
  [[nodiscard]] std::int64_t window() const { return window_; }

 private:
  std::int64_t window_;
  std::vector<std::int64_t> argmax_;
  std::vector<std::int64_t> in_shape_;
};

/// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool : public Layer {
 public:
  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<GlobalAvgPool>(*this);
  }
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }

 private:
  std::vector<std::int64_t> in_shape_;
};

}  // namespace rdo::nn
