// DVA baseline: variation-aware training (Long et al., DATE'19 [9]).
//
// Trains the network with multiplicative log-normal noise injected into
// every crossbar-mapped weight each batch: gradients are computed at the
// perturbed point and applied to the clean weights, making the learned
// minimum flat with respect to resistance variation. Deployment-side, DVA
// uses 8 SLCs per weight on a one-crossbar architecture with no offsets —
// i.e. our Deployment with Scheme::Plain and SLC cells.
#pragma once

#include <cstdint>

#include "nn/layer.h"
#include "nn/trainer.h"
#include "rram/variation.h"

namespace rdo::baselines {

struct DvaOptions {
  int epochs = 3;
  std::int64_t batch_size = 32;
  float lr = 0.05f;
  float momentum = 0.9f;
  rdo::rram::VariationModel variation;  ///< training-time injected noise
  std::uint64_t seed = 7;
};

/// Fine-tune `net` in place with variation-injected training: each batch
/// copies every crossbar layer's weights(), perturbs them, and copies the
/// clean weights back before the SGD step. Returns the final epoch's training
/// accuracy, counted on the perturbed forward passes.
float dva_train(rdo::nn::Layer& net, const rdo::nn::DataView& train,
                const DvaOptions& opt);

}  // namespace rdo::baselines
