// 2-D convolution layer lowered to GEMMs over shifted rows of zero-padded
// input planes.
#pragma once

#include "nn/layer.h"
#include "nn/matrix_op.h"
#include "nn/rng.h"

namespace rdo::nn {

/// Conv2D over NCHW inputs.
///
/// The weight is stored directly in crossbar-matrix orientation
/// [fan_in = C*KH*KW, fan_out = OC]: rows are flattened receptive-field
/// positions (the values driven onto wordlines after im2col), columns are
/// output channels (bitlines). This makes the MatrixOp view an identity
/// mapping, exactly how ISAAC maps convolutions onto crossbars.
///
/// Per sample the forward lowers the input once into zero-padded input
/// planes (nn/conv_planes.h, ConvPlanes), in which tap k = (ch, ky, kx)
/// reads one contiguous run P_k of oh * wq floats, and keeps the batch's
/// planes for the backward. The kernels are GEMMs over those runs; only
/// training's weight gradient gathers them into the im2col matrix
/// cols[fan_in, positions] (ConvPlanes::gather: cols[k, :] is P_k without
/// the spill columns ow..wq of each row):
///   forward      y[oc, :]     = sum_k  W[k, oc] * P_k, compacted to NCHW
///                               with the bias added
///   input grad   dcols[k, :]  = sum_oc W[k, oc] * g[oc, :], scatter-added
///                               onto P_k with (ky, kx) descending, then
///                               the padding dropped
///   weight grad  dW[k, oc]   += sum_p  cols[k, p] * g[oc, p]
/// Each output element accumulates its terms in the same order as a
/// position-major lowering would, so results do not depend on the layout.
/// In MatrixOp's offset-gradient mode the weight gradient is replaced by
///   offset grad  G[grp, oc]  += sum_p (sum_{k in grp} cols[k, p]) * g[oc, p]
/// where each group sum adds the group's runs P_k in ascending k onto
/// +0.0 (padding taps add +0.0 to a sum that is never -0.0, exactly as
/// summing im2col rows would).
class Conv2D : public Layer, public MatrixOp {
 public:
  Conv2D(std::int64_t in_ch, std::int64_t out_ch, std::int64_t kernel,
         std::int64_t stride, std::int64_t pad, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Conv2D>(*this);
  }
  [[nodiscard]] std::string name() const override { return "Conv2D"; }

  // MatrixOp
  [[nodiscard]] std::int64_t fan_in() const override {
    return in_ch_ * kernel_ * kernel_;
  }
  [[nodiscard]] std::int64_t fan_out() const override { return out_ch_; }
  Param& weight_param() override { return weight_; }
  [[nodiscard]] const Param& weight_param() const override { return weight_; }
  Param& bias_param() { return bias_; }

  [[nodiscard]] std::int64_t kernel() const { return kernel_; }
  [[nodiscard]] std::int64_t stride() const { return stride_; }
  [[nodiscard]] std::int64_t pad() const { return pad_; }

 private:
  std::int64_t in_ch_, out_ch_, kernel_, stride_, pad_;
  bool has_bias_;
  Param weight_;  // [fan_in, out_ch]
  Param bias_;    // [out_ch]
  // The last forward's input as ConvPlanes lowered it, one slot of
  // ConvPlanes::size() floats per sample, which the backward reads.
  std::vector<float> cached_planes_;
  std::int64_t cached_n_ = 0, cached_h_ = 0, cached_w_ = 0;

  /// Shared backward; the input gradient is only built when `grad_in` is
  /// non-null.
  void backward_into(const Tensor& grad_out, Tensor* grad_in);
  /// One sample's dW and bias gradient (`gmat`: [positions, out_ch]
  /// scratch).
  void accumulate_weight_grad(const float* cols, const float* gs,
                              std::int64_t positions, float* gmat);
};

}  // namespace rdo::nn
