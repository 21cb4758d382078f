#include "baselines/dva.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "nn/loss.h"
#include "nn/matrix_op.h"
#include "nn/optimizer.h"

namespace rdo::baselines {

using namespace rdo::nn;

float dva_train(Layer& net, const DataView& train, const DvaOptions& opt) {
  const std::vector<MatrixOp*> ops = matrix_ops(net);

  Rng rng(opt.seed);
  SGD sgd(net.params(), opt.lr, opt.momentum);
  SoftmaxCrossEntropy loss;
  const std::int64_t n = train.size();
  std::vector<std::int64_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  std::vector<std::vector<float>> clean(ops.size());
  float last_acc = 0.0f;
  for (int epoch = 0; epoch < opt.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    std::int64_t correct = 0;
    for (std::int64_t start = 0; start < n; start += opt.batch_size) {
      const std::int64_t end = std::min(n, start + opt.batch_size);
      const Batch b = take_batch(
          train, std::span(order.begin() + start, order.begin() + end));

      // Perturb: W -> W * e^theta per weight, keeping the clean copy.
      for (std::size_t k = 0; k < ops.size(); ++k) {
        const std::span<float> w = ops[k]->weights();
        clean[k].assign(w.begin(), w.end());
        for (float& v : w) {
          v *= static_cast<float>(opt.variation.sample_factor(rng));
        }
      }

      Tensor logits = net.forward(b.images, /*train=*/true);
      loss.forward(logits, b.labels);
      correct += loss.correct();
      net.backward_params(loss.backward());

      // Back to the clean weights, then apply the noisy-point gradients.
      for (std::size_t k = 0; k < ops.size(); ++k) {
        std::ranges::copy(clean[k], ops[k]->weights().begin());
      }
      sgd.step();
    }
    last_acc = static_cast<float>(correct) / static_cast<float>(n);
  }
  return last_acc;
}

}  // namespace rdo::baselines
