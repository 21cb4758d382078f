#include "quant/act_quant.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/check.h"

namespace rdo::quant {

using rdo::nn::Tensor;

namespace {

constexpr float kShift = 8388608.0f;  // 2^23

/// std::clamp(std::round(u), 0.0f, levels) for an integer `levels` in
/// [1, 2^22], without a libm call. Clamping before rounding lands on the
/// same grid point. (x + 2^23) - 2^23 rounds x in [0, 2^23) to nearest
/// with ties to even; the tie test then moves a tie that went down back
/// up, which is std::round's half away from zero. The last step keeps
/// std::round's -0.0 for u in (-0.5, -0.0], which std::clamp lets
/// through, and a NaN passes every step unchanged. Bit-identical to the
/// std:: form for all 2^32 floats u (tests/test_quant.cpp samples them).
/// GCC does not if-convert these selects under its default
/// -ftrapping-math, so a loop over this function stays scalar; it is the
/// tail of round_clamp4, which is the same steps on four lanes.
float round_clamp(float u, float levels) {
  const float x = std::min(std::max(u, 0.0f), levels);
  float r = (x + kShift) - kShift;
  r += x - r == 0.5f ? 1.0f : 0.0f;
  return u > -0.5f ? std::copysign(r, u) : r;
}

/// Four floats in one SIMD register, and the matching lane mask (GCC and
/// Clang vector extensions).
using F4 = float __attribute__((vector_size(16)));
using I4 = std::int32_t __attribute__((vector_size(16)));

/// mask ? a : b per lane, for a lane mask of all ones or all zeros.
F4 select(I4 mask, F4 a, F4 b) {
  return reinterpret_cast<F4>((mask & reinterpret_cast<I4>(a)) |
                              (~mask & reinterpret_cast<I4>(b)));
}

/// round_clamp on four lanes, each step the same float operation in the
/// same order; the selects are bit masks, so no lane can trap or branch.
/// std::max(u, 0) is u < 0 ? 0 : u and std::min(y, levels) is
/// levels < y ? levels : y, which keep a NaN u as the scalar form does.
F4 round_clamp4(F4 u, F4 levels) {
  const F4 zero = {};
  const F4 y = select(u < zero, zero, u);
  const F4 x = select(levels < y, levels, y);
  const F4 shift = {kShift, kShift, kShift, kShift};
  F4 r = (x + shift) - shift;
  const F4 one = {1.0f, 1.0f, 1.0f, 1.0f};
  const F4 half = {0.5f, 0.5f, 0.5f, 0.5f};
  r += reinterpret_cast<F4>((x - r == half) & reinterpret_cast<I4>(one));
  const I4 sign = {INT32_MIN, INT32_MIN, INT32_MIN, INT32_MIN};
  const F4 signed_r = reinterpret_cast<F4>(
      (reinterpret_cast<I4>(r) & ~sign) | (reinterpret_cast<I4>(u) & sign));
  const F4 minus_half = {-0.5f, -0.5f, -0.5f, -0.5f};
  return select(u > minus_half, signed_r, r);
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

float ActQuant::quantize(float x) const {
  return round_clamp(x / step_, static_cast<float>((1 << bits_) - 1)) * step_;
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
  const F4 levels4 = {levels, levels, levels, levels};
  const F4 step4 = {step_, step_, step_, step_};
  const std::int64_t n = y.size();
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    F4 u = {};
    std::memcpy(&u, xd + i, sizeof u);
    const F4 q = round_clamp4(u / step4, levels4) * step4;
    std::memcpy(yd + i, &q, sizeof q);
  }
  for (; i < n; ++i) yd[i] = quantize(xd[i]);
  return y;
}

Tensor ActQuant::backward(const Tensor& grad_out) {
  // Straight-through estimator.
  return grad_out;
}

}  // namespace rdo::quant
