// Device-level execution backend over a compiled DeploymentPlan.
//
// Runs a trained network (Sequential of Flatten / Dense / Conv2D / ReLU /
// MaxPool2D / ActQuant — i.e. LeNet-class CNNs and MLPs)
// entirely on simulated crossbars: every Dense/Conv2D layer is tiled onto
// Crossbar arrays and executed via CrossbarLayerExecutor (convolutions
// are lowered to one VMM per output position, exactly how ISAAC drives
// them); ReLU, max-pooling, activation quantization and biases run
// digitally, as in the real accelerator.
//
// Samples go through the stages in batches: a Dense stage makes one
// batched executor call per batch, a conv stage one per image over all
// of its output positions, so each crossbar is read once per batch. A
// sample's logits do not depend on the batch it rides in.
//
// The backend is a core::EffectiveWeightBackend that evaluates on
// crossbars and overrides only evaluate() and name(): the base's
// program_cycle() draws each cycle's per-cell conductances (kept cells)
// and its tune() runs PWT on the twin, and evaluate() runs the test set
// through executors that read those cells and tuned offsets where the
// base keeps them (LayerState::cells and ::offsets) and the complement
// flags from the plan. There is one programmed state and one DeployStats
// record, so the deterministic counters equal the fast path's by
// construction; with its ideal ADC, only floating-point summation order
// can move the reported accuracy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/backend.h"
#include "core/plan.h"
#include "sim/crossbar_executor.h"

namespace rdo::sim {

/// Device geometry of the simulated substrate. The ADC is ideal; everything
/// else — cell model, variation, weight bits, offset geometry, LUT
/// protocol, seed — comes from the shared DeploymentPlan so the two
/// backends cannot drift.
struct DeviceSimOptions {
  int xbar_rows = 128;
  int xbar_cols = 128;
  int active_wordlines = 16;  ///< wordlines driven per read cycle
};

class DeviceSimBackend : public rdo::core::EffectiveWeightBackend {
 public:
  /// `plan` must outlive the backend; `src` is cloned into the base's
  /// twin and never modified. Throws std::invalid_argument for network
  /// layers that cannot run at device level or when the network does not
  /// match the plan.
  DeviceSimBackend(const rdo::core::DeploymentPlan& plan,
                   const rdo::nn::Layer& src, DeviceSimOptions dopt = {});

  /// Device-level test accuracy over every sample of `test`: images of
  /// shape [N, C, H, W] or flat samples [N, features] (MLPs); any other
  /// rank, an empty set, fewer labels than images or a batch below 1
  /// throws std::invalid_argument. Pool chunks of samples classify in
  /// parallel across the nn/parallel.h pool, `batch` samples per stage
  /// call; bit-identical for any thread count and batch.
  float evaluate(const rdo::nn::DataView& test,
                 std::int64_t batch = 64) override;
  [[nodiscard]] const char* name() const override { return "device-sim"; }

  /// Device-level logits for one sample: an image of the given shape
  /// (CNNs), or a flat sample when channels is 0 (MLPs; no conv stages).
  /// The n = 1 case of the batched forward evaluate() runs.
  /// Throws before the first program_cycle(). Thread-safe: const, and
  /// every stage reads only state frozen since the last
  /// program_cycle()/tune().
  [[nodiscard]] std::vector<double> forward(const std::vector<double>& x,
                                            int channels = 0, int height = 0,
                                            int width = 0) const;

  [[nodiscard]] std::int64_t crossbar_count() const;

 private:
  struct Stage {
    enum class Kind { Crossbar, Conv, ReLU, MaxPool, ActQuant } kind =
        Kind::ReLU;
    std::unique_ptr<CrossbarLayerExecutor> exec;  // Crossbar/Conv stages
    std::size_t plan_index = 0;       ///< into plan.layers (exec stages)
    std::vector<float> bias;          ///< digital bias add after the xbar
    rdo::quant::ActQuant* aq = nullptr;  ///< ActQuant stages (twin-owned)
    int kernel = 0, stride = 1, pad = 0;  // Conv stages
    int pool_window = 2;                  // MaxPool stages
  };

  std::vector<Stage> stages_;

  /// Logits [n x classes] of n samples `h` ([n x sample], each of the
  /// given image shape, or flat when channels is 0).
  [[nodiscard]] std::vector<double> forward_batch(std::vector<double> h,
                                                  std::int64_t n,
                                                  int channels, int height,
                                                  int width) const;
  [[nodiscard]] float device_accuracy(const rdo::nn::DataView& test,
                                      std::int64_t batch) const;
};

}  // namespace rdo::sim
