// MNIST models: LeNet-5 (the paper's test case) and the 784-64-10 MLP of
// the CLI tools and benches.
#pragma once

#include <memory>

#include "nn/rng.h"
#include "nn/sequential.h"

namespace rdo::models {

struct LeNetConfig {
  int in_channels = 1;
  int image_size = 28;
  int classes = 10;
  bool act_quant = true;  ///< insert 8-bit activation quantizers
  int act_bits = 8;
};

/// Classic LeNet-5: conv(6,5x5,pad2) - pool - conv(16,5x5) - pool -
/// fc120 - fc84 - fc10, with an activation quantizer ahead of every
/// crossbar-mapped layer.
std::unique_ptr<rdo::nn::Sequential> make_lenet(const LeNetConfig& cfg,
                                                rdo::nn::Rng& rng);

/// Flatten - ActQuant(8) - fc64 - ReLU - ActQuant(8) - fc10 for 28x28
/// single-channel images; weights drawn from `rng` in layer order.
std::unique_ptr<rdo::nn::Sequential> make_mlp(rdo::nn::Rng& rng);

}  // namespace rdo::models
