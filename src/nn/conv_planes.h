// The convolution lowering: zero-padded input planes, in which every
// kernel tap reads one contiguous run. Conv2D runs its GEMMs over the runs
// and the device simulator drives its wordlines from them.
//
// No kernel here carries a per-element bounds test: lower() copies the
// image rows into a zeroed buffer once. tests/test_im2col.cpp compares the
// tap runs and gather() byte for byte with a per-element im2col oracle
// that tests every element's bounds.
#pragma once

#include <cstdint>

namespace rdo::nn {

/// Output spatial size of a convolution dimension.
inline std::int64_t conv_out_dim(std::int64_t in, std::int64_t k,
                                 std::int64_t stride, std::int64_t pad) {
  return (in + 2 * pad - k) / stride + 1;
}

/// The zero-padded input planes of one image [C, H, W] for a k x k
/// convolution with stride s and padding p.
///
/// The padded image [C, H + 2p, W + 2p] is split into the s x s phase
/// planes of each channel (polyphase): phase (ry, rx) of channel ch holds
/// padded pixel (u * s + ry, v * s + rx) at row u, column v of an hq x wq
/// plane. At stride 1 that is one plane per channel, (H + 2p) x (W + 2p).
/// Tap (ch, ky, kx) reads padded pixel (oy * s + ky, ox * s + kx) for
/// output (oy, ox), which sits at tap_offset(ch, ky, kx) + oy * wq + ox: one
/// contiguous run of run() = oh * wq floats holds the tap at every output
/// position. Columns ox >= ow of a run spill into the next plane row and
/// are discarded by the caller; (k - 1) / s zero floats of slack after the
/// last plane keep every run inside the buffer.
struct ConvPlanes {
  /// Throws core::ContractViolation unless the kernel fits the padded
  /// image (h + 2p >= k and w + 2p >= k): otherwise a tap run would end
  /// past the planes, although conv_out_dim still reports an output
  /// position (e.g. a 3 x 3 stride-2 kernel on a 2 x 2 image).
  ConvPlanes(std::int64_t c, std::int64_t h, std::int64_t w, std::int64_t k,
             std::int64_t stride, std::int64_t pad);

  std::int64_t c, h, w, k, stride, pad;
  std::int64_t oh, ow;  // output rows and columns
  std::int64_t hq, wq;  // rows and columns of one phase plane

  /// Floats of all planes, slack included.
  [[nodiscard]] std::int64_t size() const {
    return c * stride * stride * hq * wq + (k - 1) / stride;
  }
  /// Length of one tap run: oh rows of wq columns, ow of them valid.
  [[nodiscard]] std::int64_t run() const { return oh * wq; }
  /// Where tap (ch, ky, kx)'s run starts.
  [[nodiscard]] std::int64_t tap_offset(std::int64_t ch, std::int64_t ky,
                                        std::int64_t kx) const {
    return ((ch * stride + ky % stride) * stride + kx % stride) * hq * wq +
           ky / stride * wq + kx / stride;
  }

  /// Writes the planes of image `in` [C, H, W], padding and slack zero.
  void lower(const float* in, float* planes) const;
  /// Reads the image [C, H, W] back out of `planes`, padding dropped.
  void unpad(const float* planes, float* out) const;
  /// Writes the im2col matrix [C * k * k, oh * ow] of the image lowered
  /// into `planes`: row (ch, ky, kx) is that tap's run without the spill
  /// columns, i.e. the tap's input value at every output position.
  void gather(const float* planes, float* cols) const;
};

}  // namespace rdo::nn
