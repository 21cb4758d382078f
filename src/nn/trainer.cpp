#include "nn/trainer.h"

#include <algorithm>
#include <numeric>

namespace rdo::nn {

Tensor gather_batch(const Tensor& images,
                    std::span<const std::int64_t> idx) {
  std::vector<std::int64_t> shape = images.shape();
  shape[0] = static_cast<std::int64_t>(idx.size());
  Tensor batch(shape);
  const std::int64_t stride = images.size() / images.dim(0);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const float* src = images.data() + idx[i] * stride;
    float* dst = batch.data() + static_cast<std::int64_t>(i) * stride;
    std::copy(src, src + stride, dst);
  }
  return batch;
}

Batch take_batch(const DataView& data, std::span<const std::int64_t> idx) {
  Batch b{gather_batch(*data.images, idx), {}};
  b.labels.reserve(idx.size());
  for (const std::int64_t i : idx) {
    b.labels.push_back((*data.labels)[static_cast<std::size_t>(i)]);
  }
  return b;
}

Batch take_batch(const DataView& data, std::int64_t begin, std::int64_t end) {
  Batch b;
  std::vector<std::int64_t> shape = data.images->shape();
  shape[0] = end - begin;
  b.images = Tensor(shape);
  const std::int64_t stride = data.images->size() / data.size();
  std::copy(data.images->data() + begin * stride,
            data.images->data() + end * stride, b.images.data());
  b.labels.assign(data.labels->begin() + begin, data.labels->begin() + end);
  return b;
}

EpochStats train_epoch(Layer& net, SGD& opt, const DataView& data,
                       std::int64_t batch_size, Rng& rng) {
  const std::int64_t n = data.size();
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng.engine());

  SoftmaxCrossEntropy loss;
  double total_loss = 0.0;
  std::int64_t total_correct = 0, batches = 0;
  for (std::int64_t start = 0; start < n; start += batch_size) {
    const std::int64_t end = std::min(n, start + batch_size);
    const Batch b = take_batch(
        data, std::span(order.begin() + start, order.begin() + end));
    Tensor logits = net.forward(b.images, /*train=*/true);
    total_loss += loss.forward(logits, b.labels);
    total_correct += loss.correct();
    net.backward_params(loss.backward());
    opt.step();
    ++batches;
  }
  return {static_cast<float>(total_loss /
                             static_cast<double>(std::max<std::int64_t>(
                                 1, batches))),
          static_cast<float>(total_correct) / static_cast<float>(n)};
}

EpochStats evaluate(Layer& net, const DataView& data,
                    std::int64_t batch_size) {
  const std::int64_t n = data.size();
  SoftmaxCrossEntropy loss;
  double total_loss = 0.0;
  std::int64_t total_correct = 0, batches = 0;
  for (std::int64_t start = 0; start < n; start += batch_size) {
    const std::int64_t end = std::min(n, start + batch_size);
    const Batch b = take_batch(data, start, end);
    Tensor logits = net.forward(b.images, /*train=*/false);
    total_loss += loss.forward(logits, b.labels);
    total_correct += loss.correct();
    ++batches;
  }
  return {static_cast<float>(total_loss /
                             static_cast<double>(std::max<std::int64_t>(
                                 1, batches))),
          static_cast<float>(total_correct) / static_cast<float>(n)};
}

void accumulate_mean_gradients(Layer& net, const DataView& data,
                               std::int64_t batch_size,
                               std::int64_t max_samples) {
  for (Param* p : net.params()) p->zero_grad();
  const std::int64_t n = max_samples > 0
                             ? std::min<std::int64_t>(max_samples, data.size())
                             : data.size();
  SoftmaxCrossEntropy loss;
  std::int64_t batches = 0;
  for (std::int64_t start = 0; start < n; start += batch_size) {
    const std::int64_t end = std::min(n, start + batch_size);
    const Batch b = take_batch(data, start, end);
    // Eval-mode forward: the gradients should describe the deployed
    // network's operating point (frozen batch-norm statistics).
    Tensor logits = net.forward(b.images, /*train=*/false);
    loss.forward(logits, b.labels);
    net.backward_params(loss.backward());
    ++batches;
  }
  if (batches > 1) {
    const float inv = 1.0f / static_cast<float>(batches);
    for (Param* p : net.params()) p->grad.scale(inv);
  }
}

}  // namespace rdo::nn
