// im2col / col2im transforms for convolution lowering.
#pragma once

#include <cstdint>

namespace rdo::nn {

/// Expand input patches, channel-major:
///   in  : [C, H, W] (single image)
///   out : [C*KH*KW, OH*OW] row-major; row k = (ch, ky, kx) holds that
///         kernel tap's input value at every output position, so a
///         crossbar row (wordline) of the [fan_in, fan_out] weight matrix
///         meets one contiguous row of `out`.
/// Zero padding `pad` on both sides, stride `stride`.
void im2col(const float* in, std::int64_t c, std::int64_t h, std::int64_t w,
            std::int64_t kh, std::int64_t kw, std::int64_t stride,
            std::int64_t pad, float* out);

/// Inverse scatter-add of im2col: accumulates the [C*KH*KW, OH*OW] columns
/// back into the image gradient. `in_grad` must be pre-zeroed by the
/// caller. Taps are visited with (ky, kx) descending, so every pixel
/// receives its contributions in ascending output-position order.
void col2im(const float* cols, std::int64_t c, std::int64_t h, std::int64_t w,
            std::int64_t kh, std::int64_t kw, std::int64_t stride,
            std::int64_t pad, float* in_grad);

/// Output spatial size of a convolution dimension.
inline std::int64_t conv_out_dim(std::int64_t in, std::int64_t k,
                                 std::int64_t stride, std::int64_t pad) {
  return (in + 2 * pad - k) / stride + 1;
}

}  // namespace rdo::nn
