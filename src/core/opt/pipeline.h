// Pass pipeline over a compiled DeploymentPlan.
//
// The registry holds the shipped pass:
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

/// Run the named passes over `plan` in list order. Each pass runs under
/// an RDO_TRACE span ("opt:<name>"), bumps MetricsRegistry counters
/// (opt_pass_runs, opt_registers_saved), has its invariant checked
/// (ContractViolation on a violation) and is appended to
/// plan.passes_applied. Throws std::invalid_argument on a name that is
/// not registered (callers validate user input with parse_pass_list
/// first; this is the defensive backstop).
void run_pipeline(DeploymentPlan& plan,
                  const std::vector<std::string>& names);

}  // namespace rdo::core::opt
