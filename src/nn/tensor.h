// Minimal dense float tensor used by the NN substrate.
//
// Row-major contiguous storage, shapes up to rank 4 in practice
// (N, C, H, W). This is deliberately a simple value type: copies are deep,
// moves are cheap, and all indexing is contract-checked via RDO_DCHECK in
// debug/sanitizer builds (free in Release — see core/check.h).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <string>
#include <vector>

#include "core/check.h"
#include "nn/rng.h"

namespace rdo::nn {

/// Dense row-major float tensor.
class Tensor {
 public:
  Tensor() = default;

  /// Construct a zero-filled tensor with the given shape.
  explicit Tensor(std::vector<std::int64_t> shape);
  Tensor(std::initializer_list<std::int64_t> shape)
      : Tensor(std::vector<std::int64_t>(shape)) {}

  /// Total number of elements.
  [[nodiscard]] std::int64_t size() const {
    return static_cast<std::int64_t>(data_.size());
  }
  [[nodiscard]] const std::vector<std::int64_t>& shape() const {
    return shape_;
  }
  [[nodiscard]] std::int64_t dim(int i) const {
    RDO_DCHECK(i >= 0 && i < static_cast<int>(shape_.size()),
               "Tensor::dim: axis " + std::to_string(i) + " of rank " +
                   std::to_string(shape_.size()));
    return shape_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int rank() const { return static_cast<int>(shape_.size()); }

  float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

  float& operator[](std::int64_t i) {
    RDO_DCHECK(i >= 0 && i < size(), "Tensor[]: index out of range");
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](std::int64_t i) const {
    RDO_DCHECK(i >= 0 && i < size(), "Tensor[]: index out of range");
    return data_[static_cast<std::size_t>(i)];
  }

  /// 2-D indexing (matrix of shape [d0, d1]).
  float& at(std::int64_t i, std::int64_t j) {
    RDO_DCHECK(rank() == 2, "Tensor::at(i,j) on shape " + shape_str());
    RDO_DCHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1],
               "Tensor::at: (i,j) out of range");
    return data_[static_cast<std::size_t>(i * shape_[1] + j)];
  }
  float at(std::int64_t i, std::int64_t j) const {
    RDO_DCHECK(rank() == 2, "Tensor::at(i,j) on shape " + shape_str());
    RDO_DCHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1],
               "Tensor::at: (i,j) out of range");
    return data_[static_cast<std::size_t>(i * shape_[1] + j)];
  }

  /// 4-D indexing (n, c, h, w).
  float& at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    RDO_DCHECK(rank() == 4, "Tensor::at(n,c,h,w) on shape " + shape_str());
    RDO_DCHECK(n >= 0 && n < shape_[0] && c >= 0 && c < shape_[1] &&
                   h >= 0 && h < shape_[2] && w >= 0 && w < shape_[3],
               "Tensor::at: (n,c,h,w) out of range");
    return data_[static_cast<std::size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }
  float at(std::int64_t n, std::int64_t c, std::int64_t h,
           std::int64_t w) const {
    RDO_DCHECK(rank() == 4, "Tensor::at(n,c,h,w) on shape " + shape_str());
    RDO_DCHECK(n >= 0 && n < shape_[0] && c >= 0 && c < shape_[1] &&
                   h >= 0 && h < shape_[2] && w >= 0 && w < shape_[3],
               "Tensor::at: (n,c,h,w) out of range");
    return data_[static_cast<std::size_t>(
        ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w)];
  }

  /// Reinterpret with a new shape of the same total size.
  [[nodiscard]] Tensor reshaped(std::vector<std::int64_t> new_shape) const;

  void fill(float v);
  void zero() { fill(0.0f); }

  /// Kaiming-uniform initialization with the given fan-in.
  void kaiming_init(Rng& rng, std::int64_t fan_in);

  /// Elementwise accumulate: *this += a * other.
  void axpy(float a, const Tensor& other);
  /// Elementwise scale.
  void scale(float a);

  [[nodiscard]] float max_abs() const;
  [[nodiscard]] std::string shape_str() const;

  static std::int64_t numel(const std::vector<std::int64_t>& shape) {
    return std::accumulate(shape.begin(), shape.end(),
                           static_cast<std::int64_t>(1),
                           [](std::int64_t a, std::int64_t b) { return a * b; });
  }

 private:
  std::vector<std::int64_t> shape_;
  std::vector<float> data_;
};

}  // namespace rdo::nn
