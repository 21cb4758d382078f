#include "quant/quantizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/check.h"

namespace rdo::quant {

LayerQuant quantize_matrix(const rdo::nn::MatrixOp& op, int bits) {
  RDO_CHECK(bits >= 1 && bits <= 16,
            "quantize_matrix: " + std::to_string(bits) +
                " bits outside [1, 16]");
  LayerQuant lq;
  lq.bits = bits;
  lq.rows = op.fan_in();
  lq.cols = op.fan_out();

  // Symmetric quantization: the range is +-max|w| and the ISAAC weight
  // shift is exactly half the integer range, so the zero-weight cluster
  // of a trained layer always sits at 2^(bits-1) — within reach of the
  // signed offset registers regardless of the layer's outlier skew.
  // A NaN would slip past std::max and an inf would make the scale inf;
  // either way the layer would compile to zero points without a word.
  float wabs = 0.0f;
  for (std::int64_t r = 0; r < lq.rows; ++r) {
    for (std::int64_t c = 0; c < lq.cols; ++c) {
      const float w = op.weight_at(r, c);
      RDO_CHECK(std::isfinite(w),
                "quantize_matrix: non-finite weight " + std::to_string(w) +
                    " at row " + std::to_string(r) + ", column " +
                    std::to_string(c));
      wabs = std::max(wabs, std::fabs(w));
    }
  }
  if (wabs <= 0.0f) wabs = 0.5f;
  const int levels = (1 << bits) - 1;
  lq.scale = 2.0f * wabs / static_cast<float>(levels);
  lq.zero = 1 << (bits - 1);

  lq.q.resize(static_cast<std::size_t>(lq.rows * lq.cols));
  for (std::int64_t r = 0; r < lq.rows; ++r) {
    for (std::int64_t c = 0; c < lq.cols; ++c) {
      const float w = op.weight_at(r, c);
      int v = static_cast<int>(std::lround(w / lq.scale)) + lq.zero;
      v = std::clamp(v, 0, levels);
      lq.q[static_cast<std::size_t>(r * lq.cols + c)] = v;
    }
  }
  return lq;
}

void apply_quantized(rdo::nn::MatrixOp& op, const LayerQuant& lq) {
  for (std::int64_t r = 0; r < lq.rows; ++r) {
    for (std::int64_t c = 0; c < lq.cols; ++c) {
      op.set_weight_at(r, c,
                       lq.dequant(static_cast<float>(lq.at(r, c))));
    }
  }
}

}  // namespace rdo::quant
