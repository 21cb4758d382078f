#include "nn/conv2d.h"

#include <algorithm>
#include <vector>

#include "core/check.h"
#include "nn/gemm.h"
#include "nn/im2col.h"

namespace rdo::nn {

Conv2D::Conv2D(std::int64_t in_ch, std::int64_t out_ch, std::int64_t kernel,
               std::int64_t stride, std::int64_t pad, Rng& rng, bool bias)
    : in_ch_(in_ch),
      out_ch_(out_ch),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias),
      weight_({in_ch * kernel * kernel, out_ch}),
      bias_({out_ch}) {
  weight_.value.kaiming_init(rng, fan_in());
  bias_.trainable = bias;
}

Tensor Conv2D::forward(const Tensor& x, bool /*train*/) {
  RDO_CHECK(x.rank() == 4 && x.dim(1) == in_ch_,
            "Conv2D::forward: bad input " + x.shape_str() + " for " +
                std::to_string(in_ch_) + " input channels");
  cached_in_ = x;
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = conv_out_dim(h, kernel_, stride_, pad_);
  const std::int64_t ow = conv_out_dim(w, kernel_, stride_, pad_);
  const std::int64_t positions = oh * ow;
  const std::int64_t fin = fan_in();

  Tensor y({n, out_ch_, oh, ow});
  std::vector<float> cols(static_cast<std::size_t>(fin * positions));
  for (std::int64_t s = 0; s < n; ++s) {
    im2col(x.data() + s * in_ch_ * h * w, in_ch_, h, w, kernel_, kernel_,
           stride_, pad_, cols.data());
    // y[s] = W^T * cols: [out_ch, positions], already NCHW.
    float* ys = y.data() + s * out_ch_ * positions;
    gemm_at_b_accumulate(weight_.value.data(), cols.data(), ys, out_ch_, fin,
                         positions);
    if (has_bias_) {
      for (std::int64_t oc = 0; oc < out_ch_; ++oc) {
        const float b = bias_.value[oc];
        float* row = ys + oc * positions;
        for (std::int64_t p = 0; p < positions; ++p) row[p] += b;
      }
    }
  }
  return y;
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  const Tensor& x = cached_in_;
  Tensor grad_in({x.dim(0), in_ch_, x.dim(2), x.dim(3)});
  backward_into(grad_out, &grad_in);
  return grad_in;
}

void Conv2D::backward_params(const Tensor& grad_out) {
  backward_into(grad_out, nullptr);
}

void Conv2D::backward_into(const Tensor& grad_out, Tensor* grad_in) {
  const Tensor& x = cached_in_;
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = grad_out.dim(2), ow = grad_out.dim(3);
  const std::int64_t positions = oh * ow;
  const std::int64_t fin = fan_in();
  const bool offset_mode = offset_m_ > 0;

  const std::int64_t groups =
      offset_mode ? (fin + offset_m_ - 1) / offset_m_ : 0;
  // cols [fin, positions] and gmat [positions, out_ch] in dW mode;
  // gcols [groups, positions] in offset mode.
  std::vector<float> cols(
      offset_mode ? 0 : static_cast<std::size_t>(fin * positions));
  std::vector<float> work(
      offset_mode ? static_cast<std::size_t>(groups * positions)
                  : static_cast<std::size_t>(positions * out_ch_));
  std::vector<float> dcols(
      grad_in != nullptr ? static_cast<std::size_t>(fin * positions) : 0);
  for (std::int64_t s = 0; s < n; ++s) {
    const float* xs = x.data() + s * in_ch_ * h * w;
    const float* gs = grad_out.data() + s * out_ch_ * positions;
    if (offset_mode) {
      // G[groups, out_ch] += Cg * grad_out[s]^T, with Cg[g, :] the sum of
      // the im2col rows of group g.
      im2col_group_sum(xs, in_ch_, h, w, kernel_, kernel_, stride_, pad_,
                       offset_m_, work.data());
      gemm_a_bt_accumulate(work.data(), gs, offset_grad_.data(), groups,
                           positions, out_ch_);
    } else {
      // Recompute im2col (cheaper than caching it for every layer).
      im2col(xs, in_ch_, h, w, kernel_, kernel_, stride_, pad_, cols.data());
      accumulate_weight_grad(cols.data(), gs, positions, work.data());
    }
    if (grad_in == nullptr) continue;
    // dcols = W * G, then scatter back to the input gradient.
    gemm(weight_.value.data(), gs, dcols.data(), fin, out_ch_, positions);
    col2im(dcols.data(), in_ch_, h, w, kernel_, kernel_, stride_, pad_,
           grad_in->data() + s * in_ch_ * h * w);
  }
}

void Conv2D::accumulate_weight_grad(const float* cols, const float* gs,
                                    std::int64_t positions, float* gmat) {
  // dW += cols * G^T, with G^T = grad_out[s] transposed to
  // [positions, out_ch].
  for (std::int64_t oc = 0; oc < out_ch_; ++oc) {
    for (std::int64_t p = 0; p < positions; ++p) {
      gmat[p * out_ch_ + oc] = gs[oc * positions + p];
    }
  }
  gemm_accumulate(cols, gmat, weight_.grad.data(), fan_in(), positions,
                  out_ch_);
  if (has_bias_) {
    for (std::int64_t oc = 0; oc < out_ch_; ++oc) {
      float acc = 0.0f;
      for (std::int64_t p = 0; p < positions; ++p) {
        acc += gs[oc * positions + p];
      }
      bias_.grad[oc] += acc;
    }
  }
}

std::vector<Param*> Conv2D::params() {
  std::vector<Param*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

}  // namespace rdo::nn
