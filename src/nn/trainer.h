// Training / evaluation loops over in-memory datasets.
#pragma once

#include <span>
#include <vector>

#include "nn/layer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/rng.h"

namespace rdo::nn {

/// A labelled dataset held fully in memory. `images` is [N, C, H, W] and
/// `labels[i]` is the class of sample i.
struct DataView {
  const Tensor* images = nullptr;
  const std::vector<int>* labels = nullptr;

  [[nodiscard]] std::int64_t size() const { return images->dim(0); }
};

struct EpochStats {
  float loss = 0.0f;
  float accuracy = 0.0f;
};

/// Assemble the batch with the given sample indices.
Tensor gather_batch(const Tensor& images, std::span<const std::int64_t> idx);

/// A batch cut out of a DataView: its images and their labels.
struct Batch {
  Tensor images;
  std::vector<int> labels;
};

/// The samples `idx` of `data`, in that order.
Batch take_batch(const DataView& data, std::span<const std::int64_t> idx);
/// The samples [begin, end) of `data`.
Batch take_batch(const DataView& data, std::int64_t begin, std::int64_t end);

/// One shuffled training epoch of SGD.
EpochStats train_epoch(Layer& net, SGD& opt, const DataView& data,
                       std::int64_t batch_size, Rng& rng);

/// Accuracy (and mean loss) of `net` in eval mode.
EpochStats evaluate(Layer& net, const DataView& data, std::int64_t batch_size);

/// Accumulate dL/dparam averaged over the whole dataset into param.grad
/// (without taking optimizer steps). Used by VAWO, which needs the mean
/// gradient of every weight over the training set (paper §III-B).
///
/// Gradients are left in the params for the caller to read; any previous
/// gradient content is cleared first. `max_samples` (0 = all) limits the
/// pass for large datasets.
void accumulate_mean_gradients(Layer& net, const DataView& data,
                               std::int64_t batch_size,
                               std::int64_t max_samples = 0);

}  // namespace rdo::nn
