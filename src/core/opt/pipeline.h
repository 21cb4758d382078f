// Optimizer pipeline over a compiled DeploymentPlan.
//
// The pipeline runs between core::compile_plan()'s solve and the
// execution backends. It ships one pass:
//
//   color_offset_registers  register coloring: account only the distinct
//                           (offset, complement) values of a layer, shared
//                           across its tiles (accounting-only transform)
//
// Pass lists are comma-separated name strings ("a,b,c"; the empty string
// is the empty list and leaves compiled plans untouched). They enter via
// DeployOptions::opt_passes — set from the RDO_OPT_PASSES environment
// variable by rdo_experiment, or per request through the serve protocol's
// "opt_passes" config key — and are covered by plan_fingerprint, so
// cached plans are keyed by the pipeline that produced them.
//
// What the pass may do:
//   * It rewrites only per-layer register counts. DeployOptions and the
//     LUT are read-only (plan_fingerprint covers them and the pass list),
//     and the assignment (CTWs, offsets, complement flags) is untouched,
//     so eval accuracy never moves.
//   * It is bit-deterministic: the same plan in, the same plan out, for
//     any thread count (the pipeline runs single-threaded on purpose).
//   * It skips PWT schemes (scheme_uses_pwt): PWT re-tunes every offset
//     after each programming cycle, so compile-time register sharing
//     would change its counters and tuning head-room.
// After the pass, run_pipeline checks the plan's layer geometry and the
// pass's own invariant and aborts compilation (ContractViolation) instead
// of handing a malformed plan to a backend.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/plan.h"

namespace rdo::core::opt {

/// Names of every registered pass, in canonical order.
[[nodiscard]] const std::vector<std::string>& registered_passes();

/// Parse a comma-separated pass list. Returns the names in list order;
/// nullopt (with `*error` set when non-null) on an unknown or repeated
/// pass name or an empty element ("a,,b"). The empty string parses to
/// the empty list.
[[nodiscard]] std::optional<std::vector<std::string>> parse_pass_list(
    const std::string& spec, std::string* error = nullptr);

/// Run the named passes over `plan` in list order under one RDO_TRACE
/// span ("opt:pipeline", with the register counts before and after),
/// bumping the MetricsRegistry counters opt_pass_runs and
/// opt_registers_saved; every pass has its invariants checked
/// (ContractViolation on a violation). Throws std::invalid_argument on a
/// name that is not registered (callers validate user input with
/// parse_pass_list first; this is the defensive backstop).
void run_pipeline(DeploymentPlan& plan,
                  const std::vector<std::string>& names);

}  // namespace rdo::core::opt
