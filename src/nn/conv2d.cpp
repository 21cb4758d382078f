#include "nn/conv2d.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/check.h"
#include "nn/conv_planes.h"
#include "nn/gemm.h"

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

namespace {

/// Start of every tap's run in `planes`, in weight-row order (ch, ky, kx).
std::vector<const float*> tap_rows(const ConvPlanes& g, const float* planes) {
  std::vector<const float*> rows;
  rows.reserve(static_cast<std::size_t>(g.c * g.k * g.k));
  for (std::int64_t ch = 0; ch < g.c; ++ch) {
    for (std::int64_t ky = 0; ky < g.k; ++ky) {
      for (std::int64_t kx = 0; kx < g.k; ++kx) {
        rows.push_back(planes + g.tap_offset(ch, ky, kx));
      }
    }
  }
  return rows;
}

/// Points `rows` at sample s's tap runs in a batch's planes: built at
/// s = 0, then moved on by one sample's planes (ConvPlanes::size()).
void sample_tap_rows(const ConvPlanes& g, const float* planes, std::int64_t s,
                     std::vector<const float*>& rows) {
  if (s == 0) {
    rows = tap_rows(g, planes);
  } else {
    for (const float*& row : rows) row += g.size();
  }
}

/// Compacts `rows` runs [rows, oh * wq] into [rows, oh * ow], dropping
/// the spill columns ow..wq of each output row, and adds bias[r] to row r
/// when `bias` is given.
void compact(const ConvPlanes& g, const float* src, std::int64_t rows,
             const float* bias, float* dst) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t oy = 0; oy < g.oh; ++oy) {
      const float* __restrict in = src + (r * g.oh + oy) * g.wq;
      float* __restrict out = dst + (r * g.oh + oy) * g.ow;
      if (bias != nullptr) {
        const float b = bias[r];
        for (std::int64_t ox = 0; ox < g.ow; ++ox) out[ox] = in[ox] + b;
      } else {
        std::copy(in, in + g.ow, out);
      }
    }
  }
}

}  // namespace

Tensor Conv2D::forward(const Tensor& x, bool /*train*/) {
  RDO_CHECK(x.rank() == 4 && x.dim(1) == in_ch_,
            "Conv2D::forward: bad input " + x.shape_str() + " for " +
                std::to_string(in_ch_) + " input channels");
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const ConvPlanes g(in_ch_, h, w, kernel_, stride_, pad_);
  const std::int64_t positions = g.oh * g.ow, run = g.run();
  cached_n_ = n;
  cached_h_ = h;
  cached_w_ = w;
  cached_planes_.resize(static_cast<std::size_t>(n * g.size()));

  Tensor y({n, out_ch_, g.oh, g.ow});
  std::vector<float> wide(static_cast<std::size_t>(out_ch_ * run));
  std::vector<const float*> taps;
  for (std::int64_t s = 0; s < n; ++s) {
    g.lower(x.data() + s * in_ch_ * h * w,
            cached_planes_.data() + s * g.size());
    sample_tap_rows(g, cached_planes_.data(), s, taps);
    // wide = W^T * taps: [out_ch, oh * wq], channel-major like NCHW.
    std::fill(wide.begin(), wide.end(), 0.0f);
    gemm_at_b_rows_accumulate(weight_.value.data(), taps.data(), wide.data(),
                              out_ch_, fan_in(), run);
    compact(g, wide.data(), out_ch_,
            has_bias_ ? bias_.value.data() : nullptr,
            y.data() + s * out_ch_ * positions);
  }
  return y;
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  Tensor grad_in({cached_n_, in_ch_, cached_h_, cached_w_});
  backward_into(grad_out, &grad_in);
  return grad_in;
}

void Conv2D::backward_params(const Tensor& grad_out) {
  backward_into(grad_out, nullptr);
}

void Conv2D::backward_into(const Tensor& grad_out, Tensor* grad_in) {
  const std::int64_t n = cached_n_, h = cached_h_, w = cached_w_;
  const ConvPlanes g(in_ch_, h, w, kernel_, stride_, pad_);
  const std::int64_t positions = g.oh * g.ow, run = g.run();
  const std::int64_t fin = fan_in();
  const bool offset_mode = offset_m_ > 0;

  const std::int64_t groups =
      offset_mode ? (fin + offset_m_ - 1) / offset_m_ : 0;
  // Offset mode: the group sums as runs [groups, run] and compacted
  // [groups, positions]. dW mode: cols [fin, positions] and gmat
  // [positions, out_ch].
  std::vector<float> group_runs(static_cast<std::size_t>(groups * run));
  std::vector<float> cols(
      offset_mode ? 0 : static_cast<std::size_t>(fin * positions));
  std::vector<float> work(
      offset_mode ? static_cast<std::size_t>(groups * positions)
                  : static_cast<std::size_t>(positions * out_ch_));
  // Input gradient: dcols [fin, positions] and its padded planes.
  std::vector<float> dcols(
      grad_in != nullptr ? static_cast<std::size_t>(fin * positions) : 0);
  std::vector<float> grad_planes(
      grad_in != nullptr ? static_cast<std::size_t>(g.size()) : 0);
  // The scatter's taps in its order, (ch, ky descending, kx descending):
  // each tap's dcols row and where its run starts in the planes.
  std::vector<std::pair<std::int64_t, std::int64_t>> scatter;
  if (grad_in != nullptr) {
    scatter.reserve(static_cast<std::size_t>(fin));
    for (std::int64_t ch = 0; ch < in_ch_; ++ch) {
      for (std::int64_t ky = kernel_ - 1; ky >= 0; --ky) {
        for (std::int64_t kx = kernel_ - 1; kx >= 0; --kx) {
          scatter.emplace_back((ch * kernel_ + ky) * kernel_ + kx,
                               g.tap_offset(ch, ky, kx));
        }
      }
    }
  }
  std::vector<const float*> taps;
  for (std::int64_t s = 0; s < n; ++s) {
    const float* gs = grad_out.data() + s * out_ch_ * positions;
    if (offset_mode) {
      // G[groups, out_ch] += Cg * grad_out[s]^T, with Cg[grp, :] the sum
      // of group grp's tap runs in the planes the forward lowered sample s
      // into, added in ascending tap order onto +0.0.
      sample_tap_rows(g, cached_planes_.data(), s, taps);
      std::fill(group_runs.begin(), group_runs.end(), 0.0f);
      for (std::int64_t t = 0; t < fin; ++t) {
        float* __restrict dst = group_runs.data() + t / offset_m_ * run;
        const float* __restrict src = taps[static_cast<std::size_t>(t)];
        for (std::int64_t j = 0; j < run; ++j) dst[j] += src[j];
      }
      compact(g, group_runs.data(), groups, nullptr, work.data());
      gemm_a_bt_accumulate(work.data(), gs, offset_grad_.data(), groups,
                           positions, out_ch_);
    } else {
      g.gather(cached_planes_.data() + s * g.size(), cols.data());
      accumulate_weight_grad(cols.data(), gs, positions, work.data());
    }
    if (grad_in == nullptr) continue;
    // dcols = W * G, scatter-added into the padded planes one tap at a
    // time with (ky, kx) descending, so every pixel receives its terms in
    // ascending output-position order; the padding is then dropped.
    gemm(weight_.value.data(), gs, dcols.data(), fin, out_ch_, positions);
    std::fill(grad_planes.begin(), grad_planes.end(), 0.0f);
    for (const auto& [row, offset] : scatter) {
      const float* src = dcols.data() + row * positions;
      float* dst = grad_planes.data() + offset;
      for (std::int64_t oy = 0; oy < g.oh; ++oy) {
        float* __restrict d = dst + oy * g.wq;
        const float* __restrict r = src + oy * g.ow;
        for (std::int64_t ox = 0; ox < g.ow; ++ox) d[ox] += r[ox];
      }
    }
    g.unpad(grad_planes.data(), grad_in->data() + s * in_ch_ * h * w);
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
