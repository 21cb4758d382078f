#include "nn/conv_planes.h"

#include <algorithm>
#include <string>

#include "core/check.h"

namespace rdo::nn {

namespace {

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
      wq((w + 2 * pad + stride - 1) / stride) {
  RDO_CHECK(h + 2 * pad >= k && w + 2 * pad >= k,
            "ConvPlanes: a " + std::to_string(k) + "x" + std::to_string(k) +
                " kernel does not fit a " + std::to_string(h) + "x" +
                std::to_string(w) + " image with padding " +
                std::to_string(pad));
}

// The plane kernels give stride 1 its own inner loop: with a run-time
// stride in the index, the compiler does not vectorise the contiguous
// case.

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

void ConvPlanes::gather(const float* planes, float* cols) const {
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t ky = 0; ky < k; ++ky) {
      for (std::int64_t kx = 0; kx < k; ++kx) {
        const float* run = planes + tap_offset(ch, ky, kx);
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          cols = std::copy(run + oy * wq, run + oy * wq + ow, cols);
        }
      }
    }
  }
}

}  // namespace rdo::nn
