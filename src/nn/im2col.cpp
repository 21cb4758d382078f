#include "nn/im2col.h"

#include <algorithm>

namespace rdo::nn {

namespace {

/// Output indices o in [lo, hi) whose input index o * stride - pad + tap
/// lies inside [0, in); every other output index reads the zero padding.
struct Valid {
  std::int64_t lo, hi;
};

Valid valid_range(std::int64_t in, std::int64_t out, std::int64_t tap,
                  std::int64_t stride, std::int64_t pad) {
  const std::int64_t first = pad - tap;          // o * stride >= first
  const std::int64_t last = in - 1 + pad - tap;  // o * stride <= last
  if (last < 0) return {0, 0};
  const std::int64_t hi = std::min(out, last / stride + 1);
  const std::int64_t lo = first <= 0 ? 0 : (first + stride - 1) / stride;
  return {std::min(lo, hi), hi};
}

}  // namespace

// Each kernel gives stride 1 its own inner loop: with a run-time stride
// in the index, the compiler does not vectorise the contiguous case.

void im2col(const float* in, std::int64_t c, std::int64_t h, std::int64_t w,
            std::int64_t kh, std::int64_t kw, std::int64_t stride,
            std::int64_t pad, float* out) {
  const std::int64_t oh = conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = conv_out_dim(w, kw, stride, pad);
  float* row = out;
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float* img = in + ch * h * w;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      const Valid ys = valid_range(h, oh, ky, stride, pad);
      for (std::int64_t kx = 0; kx < kw; ++kx, row += oh * ow) {
        const Valid xs = valid_range(w, ow, kx, stride, pad);
        std::fill(row, row + ys.lo * ow, 0.0f);
        for (std::int64_t oy = ys.lo; oy < ys.hi; ++oy) {
          float* __restrict dst = row + oy * ow;
          // img[base + ox * stride] is the pixel under output column ox.
          const std::int64_t base = (oy * stride - pad + ky) * w - pad + kx;
          for (std::int64_t ox = 0; ox < xs.lo; ++ox) dst[ox] = 0.0f;
          if (stride == 1) {
            for (std::int64_t ox = xs.lo; ox < xs.hi; ++ox) {
              dst[ox] = img[base + ox];
            }
          } else {
            for (std::int64_t ox = xs.lo; ox < xs.hi; ++ox) {
              dst[ox] = img[base + ox * stride];
            }
          }
          for (std::int64_t ox = xs.hi; ox < ow; ++ox) dst[ox] = 0.0f;
        }
        std::fill(row + ys.hi * ow, row + oh * ow, 0.0f);
      }
    }
  }
}

void im2col_group_sum(const float* in, std::int64_t c, std::int64_t h,
                      std::int64_t w, std::int64_t kh, std::int64_t kw,
                      std::int64_t stride, std::int64_t pad,
                      std::int64_t group, float* out) {
  const std::int64_t oh = conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = conv_out_dim(w, kw, stride, pad);
  const std::int64_t groups = (c * kh * kw + group - 1) / group;
  std::fill(out, out + groups * oh * ow, 0.0f);
  std::int64_t tap = 0;
  for (std::int64_t ch = 0; ch < c; ++ch) {
    const float* img = in + ch * h * w;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      const Valid ys = valid_range(h, oh, ky, stride, pad);
      for (std::int64_t kx = 0; kx < kw; ++kx, ++tap) {
        const Valid xs = valid_range(w, ow, kx, stride, pad);
        float* sum = out + tap / group * oh * ow;
        for (std::int64_t oy = ys.lo; oy < ys.hi; ++oy) {
          float* __restrict dst = sum + oy * ow;
          const std::int64_t base = (oy * stride - pad + ky) * w - pad + kx;
          if (stride == 1) {
            for (std::int64_t ox = xs.lo; ox < xs.hi; ++ox) {
              dst[ox] += img[base + ox];
            }
          } else {
            for (std::int64_t ox = xs.lo; ox < xs.hi; ++ox) {
              dst[ox] += img[base + ox * stride];
            }
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
    float* __restrict img = in_grad + ch * h * w;
    for (std::int64_t ky = kh - 1; ky >= 0; --ky) {
      const Valid ys = valid_range(h, oh, ky, stride, pad);
      for (std::int64_t kx = kw - 1; kx >= 0; --kx) {
        const Valid xs = valid_range(w, ow, kx, stride, pad);
        const float* row = cols + ((ch * kh + ky) * kw + kx) * oh * ow;
        for (std::int64_t oy = ys.lo; oy < ys.hi; ++oy) {
          const float* __restrict src = row + oy * ow;
          // img[base + ox * stride] is the pixel under output column ox.
          const std::int64_t base = (oy * stride - pad + ky) * w - pad + kx;
          if (stride == 1) {
            for (std::int64_t ox = xs.lo; ox < xs.hi; ++ox) {
              img[base + ox] += src[ox];
            }
          } else {
            for (std::int64_t ox = xs.lo; ox < xs.hi; ++ox) {
              img[base + ox * stride] += src[ox];
            }
          }
        }
      }
    }
  }
}

}  // namespace rdo::nn
