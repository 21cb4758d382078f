// Execution backends over a compiled DeploymentPlan.
//
// A backend realizes programming cycles of a plan: program_cycle() writes
// one CCV draw of every CTW, tune() runs the scheme's post-writing offset
// tuning and evaluate() measures test accuracy of the deployed state.
// Backends own all mutable state (including a private clone of the
// network), so the caller's trained network is never modified and
// independent backends over the same plan never interact — the parallel
// Monte-Carlo harnesses exploit exactly that.
//
// EffectiveWeightBackend below is the one programmed state: it draws
// every cycle's cells, runs PWT and keeps one DeployStats record. A
// backend that evaluates on another substrate derives from it and
// overrides only evaluate() and name(), reading the kept cells and
// offsets in place (sim::DeviceSimBackend in src/sim/device_backend.h
// reads them through simulated crossbars), so its deterministic counters
// and seeded RNG streams equal the fast path's by construction.
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

/// Turns the offset gradient G that a crossbar layer accumulated in
/// MatrixOp's offset-gradient mode ([groups_per_col, cols], see
/// nn/matrix_op.h) into dL/db for every offset register of `pl`, in
/// place: a sign flip for complemented groups and the layer's
/// dequantization scale. Returns the sum of squares of the result.
double signed_offset_gradient(const PlanLayer& pl, std::span<float> grad);

/// The fast path: CRWs are composed numerically by the WeightProgrammer
/// and folded, together with offsets and complement flags, into effective
/// float weights of a private network clone (the "twin").
class EffectiveWeightBackend {
 public:
  struct LayerState {
    rdo::nn::MatrixOp* op = nullptr;  ///< into the private twin network
    std::vector<float> offsets;       ///< working offsets (tuned by PWT)
    std::vector<double> crw;          ///< measured CRWs of the current cycle
    /// Post-variation cell read values, flat [rows * cols *
    /// cells_per_weight] (row-major weights, LSB cell first); kept only
    /// for a derived backend that reads the devices themselves, empty
    /// otherwise.
    std::vector<double> cells;
  };

  /// Clones `src` into a private twin at the plan's quantized operating
  /// point. `plan` must outlive the backend; `src` is only read during
  /// construction. Throws std::invalid_argument when the network shape
  /// does not match the plan.
  EffectiveWeightBackend(const DeploymentPlan& plan,
                         const rdo::nn::Layer& src)
      : EffectiveWeightBackend(plan, src, /*keep_cell_values=*/false) {}
  EffectiveWeightBackend(const EffectiveWeightBackend&) = delete;
  EffectiveWeightBackend& operator=(const EffectiveWeightBackend&) = delete;
  virtual ~EffectiveWeightBackend() = default;

  /// Program every CTW once (one CCV cycle; `cycle_salt` selects the
  /// cycle's device draws deterministically from the plan seed).
  void program_cycle(std::uint64_t cycle_salt);
  /// Post-writing tuning of the digital offsets (no-op unless the plan's
  /// scheme includes PWT). Rounds offsets to the register grid when done.
  void tune(const rdo::nn::DataView& train);
  /// Test accuracy of the currently deployed state.
  virtual float evaluate(const rdo::nn::DataView& test,
                         std::int64_t batch = 64);
  /// Per-phase wall times and deterministic pipeline counters accumulated
  /// since construction (compile-stage times live in the plan, not here).
  [[nodiscard]] const DeployStats& stats() const { return stats_; }
  /// Drops the per-call evaluate() records (stats().eval_seconds and
  /// eval_accuracy); the eval_s sum and every counter stay. A backend
  /// that is reused without bound calls this so its memory does not grow
  /// with the number of evaluations.
  void clear_eval_records() {
    stats_.eval_seconds.clear();
    stats_.eval_accuracy.clear();
  }
  [[nodiscard]] virtual const char* name() const {
    return "effective-weight";
  }

  [[nodiscard]] const DeploymentPlan& plan() const { return plan_; }
  [[nodiscard]] const std::vector<LayerState>& layers() const {
    return layers_;
  }
  /// The private deployed twin (for loss probes in tests and a derived
  /// backend's stage walk). Never the caller's network.
  [[nodiscard]] rdo::nn::Layer& network() { return *net_; }

 protected:
  /// `keep_cell_values` keeps every cycle's cells in LayerState::cells.
  EffectiveWeightBackend(const DeploymentPlan& plan,
                         const rdo::nn::Layer& src, bool keep_cell_values);

  DeployStats stats_;
  bool weights_deployed_ = false;  ///< set by the first program_cycle()

 private:
  const DeploymentPlan& plan_;
  std::unique_ptr<rdo::nn::Layer> net_;
  std::vector<LayerState> layers_;
  std::vector<rdo::quant::ActQuant*> act_quants_;
  bool keep_cells_ = false;

  void apply_effective_weights();
  void apply_group_delta(std::size_t li, std::int64_t c, std::int64_t g,
                         float delta_b);
  void run_pwt(const rdo::nn::DataView& train);  // defined in pwt.cpp
};

}  // namespace rdo::core
