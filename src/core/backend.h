// Pluggable execution backends over a compiled DeploymentPlan.
//
// An ExecutionBackend realizes programming cycles of a plan on some
// substrate: program_cycle() writes one CCV draw of every CTW, tune()
// runs the scheme's post-writing offset tuning and evaluate() measures
// test accuracy of the deployed state. Backends own all mutable state
// (including a private clone of the network), so the caller's trained
// network is never modified and independent backends over the same plan
// never interact — the parallel Monte-Carlo harnesses exploit exactly
// that.
//
// Both shipped backends (EffectiveWeightBackend here and
// sim::DeviceSimBackend in src/sim/device_backend.h) emit identical
// deterministic DeployStats counters and identical seeded RNG streams,
// so bench_diff can gate cross-backend parity.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/plan.h"
#include "nn/layer.h"
#include "nn/trainer.h"
#include "quant/act_quant.h"

namespace rdo::core {

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Program every CTW once (one CCV cycle; `cycle_salt` selects the
  /// cycle's device draws deterministically from the plan seed).
  virtual void program_cycle(std::uint64_t cycle_salt) = 0;
  /// Post-writing tuning of the digital offsets (no-op unless the plan's
  /// scheme includes PWT). Rounds offsets to the register grid when done.
  virtual void tune(const rdo::nn::DataView& train) = 0;
  /// Test accuracy of the currently deployed state.
  virtual float evaluate(const rdo::nn::DataView& test,
                         std::int64_t batch = 64) = 0;
  /// Per-phase wall times and deterministic pipeline counters accumulated
  /// since construction (compile-stage times live in the plan, not here).
  [[nodiscard]] virtual const DeployStats& stats() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Turns the offset gradient G that a crossbar layer accumulated in
/// MatrixOp's offset-gradient mode ([groups_per_col, cols], see
/// nn/matrix_op.h) into dL/db for every offset register of `pl`, in
/// place: a sign flip for complemented groups and the layer's
/// dequantization scale. Returns the sum of squares of the result.
double signed_offset_gradient(const PlanLayer& pl, std::span<float> grad);

/// The fast path: CRWs are composed numerically by the WeightProgrammer
/// and folded, together with offsets and complement flags, into effective
/// float weights of a private network clone (the "twin"). Validated
/// against the device-level backend by the parity test suite.
class EffectiveWeightBackend : public ExecutionBackend {
 public:
  struct LayerState {
    rdo::nn::MatrixOp* op = nullptr;  ///< into the private twin network
    std::vector<float> offsets;       ///< working offsets (tuned by PWT)
    std::vector<double> crw;          ///< measured CRWs of the current cycle
    /// Per-weight post-variation cell read values (LSB cell first); kept
    /// only when constructed with keep_cell_values, so a device-level
    /// backend can replay the exact same devices onto simulated crossbars.
    std::vector<std::vector<double>> cells;
  };

  /// Clones `src` into a private twin at the plan's quantized operating
  /// point. `plan` must outlive the backend; `src` is only read during
  /// construction. Throws std::invalid_argument when the network shape
  /// does not match the plan.
  EffectiveWeightBackend(const DeploymentPlan& plan,
                         const rdo::nn::Layer& src,
                         bool keep_cell_values = false);

  void program_cycle(std::uint64_t cycle_salt) override;
  void tune(const rdo::nn::DataView& train) override;
  float evaluate(const rdo::nn::DataView& test,
                 std::int64_t batch = 64) override;
  [[nodiscard]] const DeployStats& stats() const override { return stats_; }
  [[nodiscard]] const char* name() const override {
    return "effective-weight";
  }

  [[nodiscard]] const DeploymentPlan& plan() const { return plan_; }
  [[nodiscard]] const std::vector<LayerState>& layers() const {
    return layers_;
  }
  /// The private deployed twin (for loss probes in tests and the device
  /// backend's PWT path). Never the caller's network.
  [[nodiscard]] rdo::nn::Layer& network() { return *net_; }

 private:
  const DeploymentPlan& plan_;
  std::unique_ptr<rdo::nn::Layer> net_;
  std::vector<LayerState> layers_;
  std::vector<rdo::quant::ActQuant*> act_quants_;
  DeployStats stats_;
  bool keep_cells_ = false;
  bool weights_deployed_ = false;

  void apply_effective_weights();
  void apply_group_delta(std::size_t li, std::int64_t c, std::int64_t g,
                         float delta_b);
  void run_pwt(const rdo::nn::DataView& train);  // defined in pwt.cpp
};

}  // namespace rdo::core
