#include "quant/act_quant.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace rdo::quant {

using rdo::nn::Tensor;

namespace {

/// std::clamp(std::round(u), 0.0f, levels) for an integer `levels` in
/// [1, 2^22], without a branch or a libm call, so the loop over a tensor
/// vectorises. Clamping before rounding lands on the same grid point.
/// (x + 2^23) - 2^23 rounds x in [0, 2^23) to nearest with ties to even;
/// the tie test then moves a tie that went down back up, which is
/// std::round's half away from zero. The last step keeps std::round's
/// -0.0 for u in (-0.5, -0.0], which std::clamp lets through, and a NaN
/// passes every step unchanged. Bit-identical to the std:: form for all
/// 2^32 floats u (tests/test_quant.cpp samples them).
float round_clamp(float u, float levels) {
  constexpr float kShift = 8388608.0f;  // 2^23
  const float x = std::min(std::max(u, 0.0f), levels);
  float r = (x + kShift) - kShift;
  r += x - r == 0.5f ? 1.0f : 0.0f;
  return u > -0.5f ? std::copysign(r, u) : r;
}

}  // namespace

ActQuant::ActQuant(int bits) : bits_(bits) {
  RDO_CHECK(bits >= 1 && bits <= 22,
            "ActQuant: " + std::to_string(bits) + " bits outside [1, 22]");
}

void ActQuant::disable() {
  enabled_ = false;
  observed_max_ = 0.0f;  // restart observation from a clean slate
}

void ActQuant::calibrate(float max_abs) {
  const int levels = (1 << bits_) - 1;
  step_ = std::max(max_abs, 1e-6f) / static_cast<float>(levels);
  enabled_ = true;
}

Tensor ActQuant::forward(const Tensor& x, bool /*train*/) {
  if (!enabled_) {
    observed_max_ = std::max(observed_max_, x.max_abs());
    return x;
  }
  // Activations are post-ReLU / inputs: the grid starts at zero.
  const float levels = static_cast<float>((1 << bits_) - 1);
  Tensor y(x.shape());
  const float* xd = x.data();
  float* yd = y.data();
  for (std::int64_t i = 0; i < y.size(); ++i) {
    yd[i] = round_clamp(xd[i] / step_, levels) * step_;
  }
  return y;
}

Tensor ActQuant::backward(const Tensor& grad_out) {
  // Straight-through estimator.
  return grad_out;
}

}  // namespace rdo::quant
