// Optimizer passes over a compiled DeploymentPlan.
//
// A pass is a named, deterministic transform DeploymentPlan ->
// DeploymentPlan that runs between core::compile_plan() and the
// execution backends (the MIGraphX idiom: small, verifiable rewrites over
// an immutable program). Every pass carries a machine-checkable
// invariant: run_pipeline() (core/opt/pipeline.h) calls check() after
// each transform and aborts compilation on a violation instead of
// handing a malformed plan to a backend.
//
// Contract for implementations:
//   * run() mutates only plan.layers / per-layer metadata; DeployOptions
//     and the LUT are read-only (they are covered by plan_fingerprint,
//     which already includes the pass list).
//   * run() is bit-deterministic: the same plan in, the same plan out,
//     for any thread count (passes run single-threaded on purpose).
//   * Passes that need per-group tuning freedom at execution time skip
//     PWT schemes (scheme_uses_pwt): PWT re-tunes every offset after
//     each programming cycle, so compile-time register sharing would
//     change its counters and tuning head-room.
#pragma once

#include "core/plan.h"

namespace rdo::core::opt {

class Pass {
 public:
  virtual ~Pass() = default;

  /// Stable pass name (the spelling used in RDO_OPT_PASSES, the serve
  /// "opt_passes" config key and the plan's pass-provenance record).
  [[nodiscard]] virtual const char* name() const = 0;

  /// Transform `plan` in place (see the contract above).
  virtual void run(DeploymentPlan& plan) const = 0;

  /// Machine-checkable invariant over the transformed plan. Throws
  /// ContractViolation (via RDO_CHECK) when the transform left the plan
  /// in a state a backend could misinterpret.
  virtual void check(const DeploymentPlan& plan) const = 0;
};

}  // namespace rdo::core::opt
