#include "nn/loss.h"

#include <cmath>

#include "core/check.h"

namespace rdo::nn {

float SoftmaxCrossEntropy::forward(const Tensor& logits,
                                   const std::vector<int>& labels) {
  RDO_CHECK(logits.rank() == 2 &&
                logits.dim(0) == static_cast<std::int64_t>(labels.size()),
            "SoftmaxCrossEntropy: logits " + logits.shape_str() + " vs " +
                std::to_string(labels.size()) + " labels");
  const std::int64_t n = logits.dim(0), k = logits.dim(1);
  probs_ = Tensor({n, k});
  labels_ = labels;
  correct_ = 0;
  double total = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    // Labels are input from outside the program (a dataset file, a serve
    // request's inline batch), so their range is checked here in every
    // build, not by Tensor::at's debug-only check.
    const int label = labels[static_cast<std::size_t>(i)];
    RDO_BOUNDS(label, k);
    float maxv = logits.at(i, 0);
    std::int64_t arg = 0;
    for (std::int64_t j = 1; j < k; ++j) {
      if (logits.at(i, j) > maxv) {
        maxv = logits.at(i, j);
        arg = j;
      }
    }
    if (arg == label) ++correct_;
    double z = 0.0;
    for (std::int64_t j = 0; j < k; ++j) {
      const double e = std::exp(static_cast<double>(logits.at(i, j) - maxv));
      probs_.at(i, j) = static_cast<float>(e);
      z += e;
    }
    for (std::int64_t j = 0; j < k; ++j) {
      probs_.at(i, j) = static_cast<float>(probs_.at(i, j) / z);
    }
    const float p = probs_.at(i, label);
    total += -std::log(std::max(p, 1e-12f));
  }
  return static_cast<float>(total / static_cast<double>(n));
}

Tensor SoftmaxCrossEntropy::backward() const {
  const std::int64_t n = probs_.dim(0), k = probs_.dim(1);
  Tensor g = probs_;
  const float inv = 1.0f / static_cast<float>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    g.at(i, labels_[static_cast<std::size_t>(i)]) -= 1.0f;
    for (std::int64_t j = 0; j < k; ++j) g.at(i, j) *= inv;
  }
  return g;
}

}  // namespace rdo::nn
