// im2col / col2im transforms for convolution lowering.
//
// The kernels carry no per-element bounds test: each kernel tap's valid
// output rows and columns (those whose input pixel lies inside the image)
// are computed once, so a tap row is a zero fill plus a contiguous copy
// or add (stride 1) or a strided gather. tests/test_im2col.cpp compares
// them byte for byte, accumulation order included, with per-element
// oracles that test every element's bounds.
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

/// The im2col rows summed over each run of `group` consecutive taps:
///   out : [ceil(C*KH*KW / group), OH*OW], row g = sum of im2col rows
///         [g * group, (g + 1) * group), added in ascending tap order onto
///         +0.0, without materialising the im2col matrix.
/// Byte-identical to summing the rows of im2col's output that way: the
/// padding taps it skips would add +0.0 to a sum that, starting at +0.0,
/// is never -0.0.
void im2col_group_sum(const float* in, std::int64_t c, std::int64_t h,
                      std::int64_t w, std::int64_t kh, std::int64_t kw,
                      std::int64_t stride, std::int64_t pad,
                      std::int64_t group, float* out);

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
