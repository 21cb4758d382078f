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
  const std::span<const float> w = op.weights();
  float wabs = 0.0f;
  for (std::size_t i = 0; i < w.size(); ++i) {
    RDO_CHECK(std::isfinite(w[i]),
              "quantize_matrix: non-finite weight " + std::to_string(w[i]) +
                  " at row " + std::to_string(i / lq.cols) + ", column " +
                  std::to_string(i % lq.cols));
    wabs = std::max(wabs, std::fabs(w[i]));
  }
  if (wabs <= 0.0f) wabs = 0.5f;
  const int levels = (1 << bits) - 1;
  lq.scale = 2.0f * wabs / static_cast<float>(levels);
  lq.zero = 1 << (bits - 1);

  lq.q.resize(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    const int v = static_cast<int>(std::lround(w[i] / lq.scale)) + lq.zero;
    lq.q[i] = std::clamp(v, 0, levels);
  }
  return lq;
}

void apply_quantized(rdo::nn::MatrixOp& op, const LayerQuant& lq) {
  const std::span<float> w = op.weights();
  RDO_CHECK(w.size() == lq.q.size(),
            "apply_quantized: layer shape does not match the quantization");
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = lq.dequant(static_cast<float>(lq.q[i]));
  }
}

}  // namespace rdo::quant
