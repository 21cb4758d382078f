#include "nn/dense.h"

#include <algorithm>
#include <vector>

#include "core/check.h"
#include "nn/gemm.h"

namespace rdo::nn {

Dense::Dense(std::int64_t in, std::int64_t out, Rng& rng, bool bias)
    : in_(in), out_(out), has_bias_(bias), weight_({in, out}), bias_({out}) {
  weight_.value.kaiming_init(rng, in);
  bias_.trainable = bias;
}

Tensor Dense::forward(const Tensor& x, bool /*train*/) {
  cached_in_ =
      x.rank() == 2 ? x : x.reshaped({x.dim(0), x.size() / x.dim(0)});
  RDO_CHECK(cached_in_.dim(1) == in_,
            "Dense::forward: fan-in mismatch " + cached_in_.shape_str());
  const std::int64_t n = cached_in_.dim(0);
  Tensor y({n, out_});
  gemm(cached_in_.data(), weight_.value.data(), y.data(), n, in_, out_);
  if (has_bias_) {
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out_; ++j) y.at(i, j) += bias_.value[j];
    }
  }
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  Dense::backward_params(grad_out);
  // dX[n, in] = dY[n, out] * W^T[out, in]
  const std::int64_t n = cached_in_.dim(0);
  Tensor grad_in({n, in_});
  gemm_a_bt_accumulate(grad_out.data(), weight_.value.data(), grad_in.data(),
                       n, out_, in_);
  return grad_in;
}

void Dense::backward_params(const Tensor& grad_out) {
  const std::int64_t n = cached_in_.dim(0);
  if (offset_m_ > 0) {
    // G[groups, out] += Xg^T[groups, n] * dY[n, out], with Xg the inputs
    // summed over each group of offset_m_ consecutive rows, from +0.0 in
    // ascending row order.
    const std::int64_t groups = (in_ + offset_m_ - 1) / offset_m_;
    std::vector<float> xg(static_cast<std::size_t>(n * groups));
    for (std::int64_t i = 0; i < n; ++i) {
      const float* x = cached_in_.data() + i * in_;
      float* xs = xg.data() + i * groups;
      for (std::int64_t g = 0; g < groups; ++g) {
        const std::int64_t r1 = std::min(in_, (g + 1) * offset_m_);
        float sum = 0.0f;
        for (std::int64_t r = g * offset_m_; r < r1; ++r) sum += x[r];
        xs[g] = sum;
      }
    }
    gemm_at_b_accumulate(xg.data(), grad_out.data(), offset_grad_.data(),
                         groups, n, out_);
    return;
  }
  // dW[in, out] += X^T[in, n] * dY[n, out]
  gemm_at_b_accumulate(cached_in_.data(), grad_out.data(),
                       weight_.grad.data(), in_, n, out_);
  if (has_bias_) {
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out_; ++j) {
        bias_.grad[j] += grad_out.at(i, j);
      }
    }
  }
}

std::vector<Param*> Dense::params() {
  std::vector<Param*> p{&weight_};
  if (has_bias_) p.push_back(&bias_);
  return p;
}

}  // namespace rdo::nn
