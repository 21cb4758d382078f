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

/// Calls move(plane_row, image_row, v0, x0, n) for every run of image
/// pixels that lands on one row of one phase plane: pixels
/// image_row[x0 + j * s] and plane_row[v0 + j] for j < n.
template <typename Move>
void for_each_plane_run(const ConvPlanes& g, Move move) {
  const std::int64_t s = g.stride, plane = g.hq * g.wq;
  for (std::int64_t ch = 0; ch < g.c; ++ch) {
    for (std::int64_t y = 0; y < g.h; ++y) {
      const std::int64_t py = y + g.pad;
      const std::int64_t row =
          (ch * s + py % s) * s * plane + py / s * g.wq;
      const std::int64_t img_row = (ch * g.h + y) * g.w;
      for (std::int64_t rx = 0; rx < s; ++rx) {
        // The first column x with (x + pad) % s == rx.
        const std::int64_t x0 = ((rx - g.pad) % s + s) % s;
        move(row + rx * plane, img_row, (x0 + g.pad) / s, x0,
             (g.w - x0 + s - 1) / s);
      }
    }
  }
}

}  // namespace

ConvPlanes::ConvPlanes(std::int64_t c, std::int64_t h, std::int64_t w,
                       std::int64_t k, std::int64_t stride, std::int64_t pad)
    : c(c),
      h(h),
      w(w),
      k(k),
      stride(stride),
      pad(pad),
      oh(conv_out_dim(h, k, stride, pad)),
      ow(conv_out_dim(w, k, stride, pad)),
      hq((h + 2 * pad + stride - 1) / stride),
      wq((w + 2 * pad + stride - 1) / stride) {}

// The plane kernels and im2col give stride 1 its own inner loop: with a
// run-time stride in the index, the compiler does not vectorise the
// contiguous case.

void ConvPlanes::lower(const float* in, float* planes) const {
  std::fill(planes, planes + size(), 0.0f);
  const std::int64_t s = stride;
  for_each_plane_run(*this, [&](std::int64_t row, std::int64_t img_row,
                                std::int64_t v0, std::int64_t x0,
                                std::int64_t n) {
    float* __restrict dst = planes + row + v0;
    const float* __restrict src = in + img_row + x0;
    if (s == 1) {
      std::copy(src, src + n, dst);
    } else {
      for (std::int64_t j = 0; j < n; ++j) dst[j] = src[j * s];
    }
  });
}

void ConvPlanes::unpad(const float* planes, float* out) const {
  const std::int64_t s = stride;
  for_each_plane_run(*this, [&](std::int64_t row, std::int64_t img_row,
                                std::int64_t v0, std::int64_t x0,
                                std::int64_t n) {
    const float* __restrict src = planes + row + v0;
    float* __restrict dst = out + img_row + x0;
    if (s == 1) {
      std::copy(src, src + n, dst);
    } else {
      for (std::int64_t j = 0; j < n; ++j) dst[j * s] = src[j];
    }
  });
}

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

}  // namespace rdo::nn
