#include "nn/tensor.h"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace rdo::nn {

Tensor::Tensor(std::vector<std::int64_t> shape) : shape_(std::move(shape)) {
  for (std::int64_t d : shape_) {
    RDO_CHECK(d > 0, "Tensor: non-positive dimension in " + shape_str());
  }
  data_.assign(static_cast<std::size_t>(numel(shape_)), 0.0f);
}

Tensor Tensor::reshaped(std::vector<std::int64_t> new_shape) const {
  RDO_CHECK(numel(new_shape) == size(),
            "Tensor::reshaped: " + shape_str() + " holds " +
                std::to_string(size()) + " elements, new shape needs " +
                std::to_string(numel(new_shape)));
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

void Tensor::fill(float v) {
  for (auto& x : data_) x = v;
}

void Tensor::kaiming_init(Rng& rng, std::int64_t fan_in) {
  // Kaiming-normal: trained networks have concentrated, heavy-centered
  // weight distributions; a normal init reproduces that statistic, which
  // matters downstream (quantization ranges, VAWO's low-conductance CTW
  // choices).
  const float std_dev =
      std::sqrt(2.0f / static_cast<float>(fan_in > 0 ? fan_in : 1));
  for (auto& x : data_) {
    x = static_cast<float>(rng.normal(0.0, std_dev));
  }
}

void Tensor::axpy(float a, const Tensor& other) {
  RDO_CHECK(other.size() == size(),
            "Tensor::axpy: " + shape_str() + " += a * " + other.shape_str());
  for (std::int64_t i = 0; i < size(); ++i) {
    data_[static_cast<std::size_t>(i)] +=
        a * other.data_[static_cast<std::size_t>(i)];
  }
}

void Tensor::scale(float a) {
  for (auto& x : data_) x *= a;
}

float Tensor::max_abs() const {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::fabs(x));
  return m;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

}  // namespace rdo::nn
