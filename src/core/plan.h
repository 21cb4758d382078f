// Compile-once deployment plan (scheme-dependent, backend-independent).
//
// compile_plan() performs everything that depends on the scheme but not on
// which execution substrate realizes it: weight quantization, activation
// range calibration, mean loss-gradient collection and the VAWO / plain
// CTW+offset assignment. It works on a private clone of the trained
// network — the caller's network is never touched — and freezes the result
// into an immutable DeploymentPlan.
//
// The plan is pure data (copyable, shareable by value or const reference):
// any number of execution backends (core::EffectiveWeightBackend,
// sim::DeviceSimBackend) can realize independent programming cycles from
// one plan. Compile once, execute many.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/deploy.h"
#include "core/vawo.h"
#include "nn/layer.h"
#include "nn/trainer.h"
#include "quant/quantizer.h"
#include "rram/programmer.h"
#include "rram/rlut.h"
#include "rram/tiler.h"

namespace rdo::core {

/// Raised by DeploymentPlan::load on a corrupt, truncated or oversized
/// plan file. Derives from std::runtime_error so generic catch sites keep
/// working; a distinct type so cache-recovery code can tell a damaged
/// plan from unrelated I/O failures.
class PlanError : public std::runtime_error {
 public:
  explicit PlanError(const std::string& what) : std::runtime_error(what) {}
};

/// Activation-quantizer calibration captured at compile time (one entry
/// per ActQuant layer in network traversal order).
struct ActCalibration {
  int bits = 8;
  float max_abs = 0.0f;  ///< range observed at the quantized operating point
};

/// One crossbar-mapped layer of the plan.
struct PlanLayer {
  std::int64_t fan_in = 0;
  std::int64_t fan_out = 0;
  rdo::quant::LayerQuant lq;       ///< NTWs + scale/zero
  std::vector<double> mean_grads;  ///< row-major dL/dw (VAWO schemes only)
  VawoResult assign;               ///< CTWs, base offsets, complement flags
  /// Offset-group size of THIS layer. compile_plan sets it to the global
  /// DeployOptions::offsets.m; the tune_group_size optimizer pass may
  /// raise it per layer. Backends and the serializer read this field,
  /// never opt.offsets.m, so a tuned plan executes consistently.
  int m = 1;
  /// Offset registers this layer actually needs. Defaults to the Eq. 9
  /// geometric count groups_per_column(rows, m) * cols; the
  /// color_offset_registers pass may lower it (registers shared across
  /// tiles). Accounting-only: backends still index the full per-group
  /// offset vectors.
  std::int64_t offset_registers = 0;
  /// Per-column dead flags set by eliminate_dead_tiles (1 = every NTW of
  /// the column quantized to the zero point, so the column is never
  /// programmed and reads back exactly 0). Empty = no dead columns.
  std::vector<std::uint8_t> dead_cols;
};

/// The shared compile product. Immutable by convention once compile_plan
/// returns; backends only read it.
struct DeploymentPlan {
  explicit DeploymentPlan(const DeployOptions& o)
      : opt(o), prog(o.cell, o.weight_bits, o.variation, o.faults) {}

  DeployOptions opt;
  rdo::rram::WeightProgrammer prog;
  rdo::rram::RLut lut;
  std::vector<PlanLayer> layers;
  std::vector<ActCalibration> act_calib;
  /// Pass-provenance record: the optimizer passes (core/opt) that ran
  /// over this plan, in execution order. Empty for an unoptimized plan.
  /// Serialized with the plan, so a cache hit reports the pipeline that
  /// produced it.
  std::vector<std::string> passes_applied;
  /// Wall times of the compile stage (lut_build_s, prepare_s,
  /// vawo_solve_s). Compilation contributes no deterministic counters, so
  /// merging this into backend stats reproduces the legacy single-object
  /// DeployStats exactly on the deterministic side.
  DeployStats compile_stats;

  /// Row/column tile geometry of layer `li` on xbar_rows x xbar_cols
  /// arrays of bit-sliced weights.
  [[nodiscard]] rdo::rram::TilingInfo layer_tiling(std::size_t li,
                                                   int xbar_rows = 128,
                                                   int xbar_cols = 128) const;

  /// Nominal device read power of the assigned CTWs (Table I numerator).
  [[nodiscard]] double assigned_read_power() const;
  /// Nominal device read power of the plain NTW assignment (denominator).
  [[nodiscard]] double plain_read_power() const;
  /// Crossbars needed to hold all layers (Table III accounting).
  [[nodiscard]] std::int64_t total_crossbars(int xbar_rows = 128,
                                             int xbar_cols = 128) const;
  /// Offset registers needed across all layers: the sum of the per-layer
  /// PlanLayer::offset_registers counts (Eq. 9 at each layer's own m,
  /// minus whatever the optimizer passes shared away).
  [[nodiscard]] std::int64_t total_offset_registers() const;

  // --- serialization (src/core/plan_io.cpp) ---
  //
  // A plan file stores everything the compile stage produced — the full
  // DeployOptions (including the optimizer pass list), the embedded RLut
  // (reusing the RLU2 document), every PlanLayer (with its per-layer m,
  // register count and dead-column mask) and the activation calibration —
  // under a "RDP2" header carrying the caller's config fingerprint (see
  // plan_fingerprint). RDP1 files are rejected cleanly ("bad magic").
  // compile_stats is wall-clock-only and is NOT serialized: a loaded
  // plan reports zero compile time, which is exactly what a cache hit
  // means. Serialization is byte-stable: save(load(save(p))) is
  // bit-identical to save(p).

  /// Append one complete plan document to `out`. Throws on stream
  /// failure.
  void save(std::ostream& out, std::uint64_t fingerprint) const;
  /// Save to `path` atomically (codec::publish: a uniquely named temp
  /// file renamed into place) so concurrent loaders sharing
  /// RDO_PLAN_CACHE_DIR only ever observe complete plans. Throws on I/O
  /// failure.
  void save(const std::string& path, std::uint64_t fingerprint) const;

  /// Parse one complete save() document from `in` (must be seekable —
  /// an open binary ifstream or istringstream holding exactly one
  /// document). Returns nullopt if the stored fingerprint differs from
  /// `fingerprint` (stale cache — the caller recompiles); throws
  /// PlanError on corrupt, truncated or oversized input. Every declared
  /// count is validated against the bytes actually present before it is
  /// believed, and trailing bytes are rejected. This is the single
  /// parsing path; the path overload and the fuzz harness both call it.
  static std::optional<DeploymentPlan> load(std::istream& in,
                                            std::uint64_t fingerprint,
                                            const std::string& source);
  /// Load a plan saved by save(). Returns nullopt if the file does not
  /// exist or is stale; throws PlanError on a corrupt file.
  static std::optional<DeploymentPlan> load(const std::string& path,
                                            std::uint64_t fingerprint);
};

/// 64-bit FNV-1a fingerprint of everything a cached plan depends on: the
/// serialization format version, the network (layer structure, shapes and
/// the bytes of every parameter and buffer), the calibration/gradient
/// dataset (shape, image bytes and labels) and the full DeployOptions
/// including its PipelineConfig base (scheme, offsets, cell, variation,
/// faults, weight bits, PWT knobs, LUT protocol, seed). Two
/// configurations that would compile different plans never share a
/// fingerprint (up to hash collisions).
[[nodiscard]] std::uint64_t plan_fingerprint(const rdo::nn::Layer& net,
                                             const DeployOptions& opt,
                                             const rdo::nn::DataView& train);

/// Compile `net` (unchanged; cloned internally) for deployment under
/// `opt`. `train` feeds activation calibration and, for VAWO schemes, the
/// mean gradient estimate. Throws std::invalid_argument when the network
/// has no crossbar-mappable (MatrixOp) layers.
///
/// When the RDO_PLAN_CACHE_DIR environment variable names a directory,
/// compiled plans are cached there under their plan_fingerprint(): a
/// warm call returns the bit-identical stored plan and skips
/// lut_build/prepare/vawo_solve entirely (compile_stats reports zero
/// phase times and plan_cache_hits = 1). A stale or corrupt entry is
/// recompiled and re-saved over; writes are atomic (temp + rename) so
/// concurrent compilations sharing a cache directory only ever observe
/// complete plans.
DeploymentPlan compile_plan(const rdo::nn::Layer& net,
                            const DeployOptions& opt,
                            const rdo::nn::DataView& train);

}  // namespace rdo::core
