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

inline constexpr int kCrossbarSize = 128;  ///< rows = columns of an array

/// One crossbar-mapped layer of the plan. Every layer groups its rows by
/// the plan's one offset-group size, DeployOptions::offsets.m.
struct PlanLayer {
  rdo::quant::LayerQuant lq;  ///< NTWs + scale/zero; rows x cols = shape
  VawoResult assign;  ///< CTWs, base offsets and complement flags
  /// Offset registers this layer actually needs. Defaults to the Eq. 9
  /// geometric count groups_per_column(rows, m) * cols; the
  /// color_offset_registers pass may lower it (registers shared across
  /// tiles). Accounting-only: backends still index the full per-group
  /// offset vectors.
  std::int64_t offset_registers = 0;
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
  /// Activation-quantizer calibration captured at compile time: the
  /// full-scale range (ActQuant::calibrate's max_abs) observed at the
  /// quantized operating point, one per ActQuant layer in network
  /// traversal order.
  std::vector<float> act_max_abs;
  /// Wall times of the compile stage (lut_build_s, prepare_s,
  /// vawo_solve_s) and plan_cache_hits. Compilation adds no deterministic
  /// counter (cycles, pulses, PWT counts), so run_grid merging these
  /// ahead of its trials' stats leaves those counters as the trials made
  /// them.
  DeployStats compile_stats;

  /// Row/column tile geometry of layer `li` on kCrossbarSize arrays.
  [[nodiscard]] rdo::rram::TilingInfo layer_tiling(std::size_t li) const;

  /// Nominal device read power of the assigned CTWs (Table I numerator).
  [[nodiscard]] double assigned_read_power() const;
  /// Nominal device read power of the plain NTW assignment (denominator).
  [[nodiscard]] double plain_read_power() const;
  /// Crossbars needed to hold all layers (Table III accounting).
  [[nodiscard]] std::int64_t total_crossbars() const;
  /// Offset registers needed across all layers: the sum of the per-layer
  /// PlanLayer::offset_registers counts (Eq. 9 at the plan's m, minus
  /// whatever the optimizer passes shared away).
  [[nodiscard]] std::int64_t total_offset_registers() const;

  // --- serialization (src/core/plan_io.cpp) ---
  //
  // A plan file stores everything the backends read that the loader
  // cannot derive — the full DeployOptions (including the optimizer pass
  // list), the embedded RLut (reusing the RLU2 document), every PlanLayer
  // (with its register count) and the activation calibration — under an
  // "RDP4" header carrying the caller's config fingerprint (see
  // plan_fingerprint). Files of an earlier layout (RDP1 to RDP3) are
  // rejected cleanly ("bad magic").
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
/// (scheme, offsets, cell, variation, faults, weight bits, PWT knobs, LUT
/// protocol, gradient budget, seed, pass list). deploy.h's fixed settings
/// enter through the format version. Two configurations that would
/// compile different plans never share a fingerprint (up to hash
/// collisions).
[[nodiscard]] std::uint64_t plan_fingerprint(const rdo::nn::Layer& net,
                                             const DeployOptions& opt,
                                             const rdo::nn::DataView& train);

/// Compile `net` (unchanged; cloned internally) for deployment under
/// `opt`. `train` feeds activation calibration and, for VAWO schemes, the
/// mean gradient estimate. Checks `opt` with check_options first (throws
/// ContractViolation), and throws std::invalid_argument when the network
/// has no crossbar-mappable (MatrixOp) layers.
///
/// When the RDO_PLAN_CACHE_DIR environment variable names a directory,
/// compiled plans are cached there under their plan_fingerprint(): a
/// warm call returns the bit-identical stored plan and skips
/// lut_build/prepare/vawo_solve entirely (compile_stats reports zero
/// phase times and plan_cache_hits = 1). A stale or corrupt entry is
/// recompiled and re-saved over; writes are atomic (temp + rename) so
/// concurrent compilations sharing a cache directory only ever observe
/// complete plans. The fingerprint is computed only when the cache
/// directory is set.
DeploymentPlan compile_plan(const rdo::nn::Layer& net,
                            const DeployOptions& opt,
                            const rdo::nn::DataView& train);

/// compile_plan for a caller that already holds the config's
/// fingerprint: the RDO_PLAN_CACHE_DIR lookup and save are keyed by
/// `fingerprint` instead of hashing net and `train` a second time.
/// Precondition: fingerprint == plan_fingerprint(net, opt, train).
/// Debug builds check it (RDO_CHECK_PLAN_FINGERPRINT, see
/// src/core/CMakeLists.txt); Release builds do not, since the check
/// costs the very hash this overload saves.
DeploymentPlan compile_plan(const rdo::nn::Layer& net,
                            const DeployOptions& opt,
                            const rdo::nn::DataView& train,
                            std::uint64_t fingerprint);

}  // namespace rdo::core
