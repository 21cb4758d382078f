#include "models/lenet.h"

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "quant/act_quant.h"

namespace rdo::models {

using namespace rdo::nn;

std::unique_ptr<Sequential> make_lenet(const LeNetConfig& cfg, Rng& rng) {
  auto net = std::make_unique<Sequential>();
  auto aq = [&](Sequential& s) {
    if (cfg.act_quant) s.emplace<rdo::quant::ActQuant>(cfg.act_bits);
  };
  aq(*net);
  net->emplace<Conv2D>(cfg.in_channels, 6, 5, 1, 2, rng);
  net->emplace<ReLU>();
  net->emplace<MaxPool2D>(2);
  aq(*net);
  net->emplace<Conv2D>(6, 16, 5, 1, 0, rng);
  net->emplace<ReLU>();
  net->emplace<MaxPool2D>(2);
  net->emplace<Flatten>();
  const std::int64_t half = cfg.image_size / 2;           // after pool 1
  const std::int64_t spatial = (half - 4) / 2;            // conv5 + pool 2
  const std::int64_t flat = 16 * spatial * spatial;       // 400 for 28x28
  aq(*net);
  net->emplace<Dense>(flat, 120, rng);
  net->emplace<ReLU>();
  aq(*net);
  net->emplace<Dense>(120, 84, rng);
  net->emplace<ReLU>();
  aq(*net);
  net->emplace<Dense>(84, cfg.classes, rng);
  return net;
}

std::unique_ptr<Sequential> make_mlp(Rng& rng) {
  auto net = std::make_unique<Sequential>();
  net->emplace<Flatten>();
  net->emplace<rdo::quant::ActQuant>(8);
  net->emplace<Dense>(28 * 28, 64, rng);
  net->emplace<ReLU>();
  net->emplace<rdo::quant::ActQuant>(8);
  net->emplace<Dense>(64, 10, rng);
  return net;
}

}  // namespace rdo::models
