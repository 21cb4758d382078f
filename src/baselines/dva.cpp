#include "baselines/dva.h"

#include <algorithm>
#include <numeric>

#include "nn/loss.h"
#include "nn/matrix_op.h"
#include "nn/optimizer.h"

namespace rdo::baselines {

using namespace rdo::nn;

float dva_train(Layer& net, const DataView& train, const DvaOptions& opt) {
  std::vector<MatrixOp*> ops;
  std::vector<Layer*> all;
  collect_layers(&net, all);
  for (Layer* l : all) {
    if (auto* op = dynamic_cast<MatrixOp*>(l)) ops.push_back(op);
  }

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
      std::vector<std::int64_t> idx(order.begin() + start,
                                    order.begin() + end);
      Tensor batch = gather_batch(*train.images, idx);
      std::vector<int> labels;
      for (std::int64_t i : idx) {
        labels.push_back((*train.labels)[static_cast<std::size_t>(i)]);
      }

      // Perturb: W -> W * e^theta per weight.
      for (std::size_t k = 0; k < ops.size(); ++k) {
        MatrixOp* op = ops[k];
        auto& backup = clean[k];
        backup.resize(
            static_cast<std::size_t>(op->fan_in() * op->fan_out()));
        std::size_t i = 0;
        for (std::int64_t r = 0; r < op->fan_in(); ++r) {
          for (std::int64_t c = 0; c < op->fan_out(); ++c, ++i) {
            const float w = op->weight_at(r, c);
            backup[i] = w;
            op->set_weight_at(
                r, c,
                w * static_cast<float>(opt.variation.sample_factor(rng)));
          }
        }
      }

      Tensor logits = net.forward(batch, /*train=*/true);
      loss.forward(logits, labels);
      correct += loss.correct();
      net.backward_params(loss.backward());

      // Restore clean weights, then apply the noisy-point gradients.
      for (std::size_t k = 0; k < ops.size(); ++k) {
        MatrixOp* op = ops[k];
        std::size_t i = 0;
        for (std::int64_t r = 0; r < op->fan_in(); ++r) {
          for (std::int64_t c = 0; c < op->fan_out(); ++c, ++i) {
            op->set_weight_at(r, c, clean[k][i]);
          }
        }
      }
      sgd.step();
    }
    last_acc = static_cast<float>(correct) / static_cast<float>(n);
  }
  return last_acc;
}

}  // namespace rdo::baselines
