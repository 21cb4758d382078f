#include "nn/im2col.h"

namespace rdo::nn {

void im2col(const float* in, std::int64_t c, std::int64_t h, std::int64_t w,
            std::int64_t kh, std::int64_t kw, std::int64_t stride,
            std::int64_t pad, float* out) {
  const std::int64_t oh = conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = conv_out_dim(w, kw, stride, pad);
  float* row = out;
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float* img = in + ch * h * w;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      for (std::int64_t kx = 0; kx < kw; ++kx, row += oh * ow) {
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * stride - pad + ky;
          float* dst = row + oy * ow;
          if (iy < 0 || iy >= h) {
            for (std::int64_t ox = 0; ox < ow; ++ox) dst[ox] = 0.0f;
            continue;
          }
          const float* src = img + iy * w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * stride - pad + kx;
            dst[ox] = (ix >= 0 && ix < w) ? src[ix] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* cols, std::int64_t c, std::int64_t h, std::int64_t w,
            std::int64_t kh, std::int64_t kw, std::int64_t stride,
            std::int64_t pad, float* in_grad) {
  const std::int64_t oh = conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = conv_out_dim(w, kw, stride, pad);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    float* img = in_grad + ch * h * w;
    for (std::int64_t ky = kh - 1; ky >= 0; --ky) {
      for (std::int64_t kx = kw - 1; kx >= 0; --kx) {
        const float* row = cols + ((ch * kh + ky) * kw + kx) * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= h) continue;
          const float* src = row + oy * ow;
          float* dst = img + iy * w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * stride - pad + kx;
            if (ix >= 0 && ix < w) dst[ix] += src[ox];
          }
        }
      }
    }
  }
}

}  // namespace rdo::nn
