// Optimizer pipeline over a compiled DeploymentPlan: the one shipped
// pass, color_offset_registers, and the checks run after it (see
// core/opt/pipeline.h for what the pass may do).
#include "core/opt/pipeline.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rdo::core::opt {

namespace {

constexpr const char* kColorOffsetRegisters = "color_offset_registers";

/// Structural consistency the pass must preserve; run_pipeline checks it
/// after each run in addition to the pass's own invariant.
void check_layer_geometry(const DeploymentPlan& plan) {
  for (const PlanLayer& pl : plan.layers) {
    const std::int64_t groups_per_col =
        groups_per_column(pl.lq.rows, plan.opt.offsets.m);
    RDO_CHECK(pl.assign.groups_per_col == groups_per_col,
              "opt: group count does not match the plan's m");
    const auto per_group = static_cast<std::size_t>(
        pl.assign.groups_per_col * pl.lq.cols);
    RDO_CHECK(pl.assign.offsets.size() == per_group &&
                  pl.assign.complemented.size() == per_group,
              "opt: offset vectors do not match the layer geometry");
    RDO_CHECK(pl.offset_registers >= 1 &&
                  pl.offset_registers <= groups_per_col * pl.lq.cols,
              "opt: register count outside [1, Eq. 9 count]");
    for (std::uint8_t f : pl.assign.complemented) {
      RDO_CHECK(f == 0 || (f == 1 && scheme_uses_complement(plan.opt.scheme)),
                "opt: complement flag out of range or under a "
                "non-complement scheme");
    }
  }
}

/// Distinct (offset value, complement flag) pairs of a layer.
std::int64_t distinct_registers(const PlanLayer& pl) {
  std::vector<std::uint64_t> keys;
  keys.reserve(pl.assign.offsets.size());
  for (std::size_t i = 0; i < pl.assign.offsets.size(); ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &pl.assign.offsets[i], sizeof(bits));
    keys.push_back((static_cast<std::uint64_t>(bits) << 1) |
                   pl.assign.complemented[i]);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return static_cast<std::int64_t>(keys.size());
}

/// Offset-register coloring/sharing across tiles.
///
/// Accounting-only: groups whose registers would hold the identical
/// (offset value, complement flag) pair can share one physical register
/// across the layer's tiles, so the layer's register count drops to the
/// number of distinct pairs. The assignment itself is untouched.
void color_offset_registers(DeploymentPlan& plan) {
  if (scheme_uses_pwt(plan.opt.scheme)) return;
  for (PlanLayer& pl : plan.layers) {
    pl.offset_registers =
        std::min(pl.offset_registers, distinct_registers(pl));
  }
}

void check_color_offset_registers(const DeploymentPlan& plan) {
  if (scheme_uses_pwt(plan.opt.scheme)) return;
  for (const PlanLayer& pl : plan.layers) {
    RDO_CHECK(pl.offset_registers <= distinct_registers(pl),
              "color_offset_registers: register count exceeds the "
              "distinct (offset, complement) values");
  }
}

}  // namespace

const std::vector<std::string>& registered_passes() {
  static const auto* names =
      new std::vector<std::string>{kColorOffsetRegisters};
  return *names;
}

std::optional<std::vector<std::string>> parse_pass_list(
    const std::string& spec, std::string* error) {
  std::vector<std::string> names;
  if (spec.empty()) return names;
  const std::vector<std::string>& known = registered_passes();
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string name = spec.substr(start, end - start);
    if (name.empty()) {
      if (error != nullptr) *error = "empty pass name in pass list";
      return std::nullopt;
    }
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      if (error != nullptr) {
        std::string list;
        for (const std::string& n : known) {
          if (!list.empty()) list += ", ";
          list += n;
        }
        *error = "unknown optimizer pass \"" + name + "\" (known: " +
                 list + ")";
      }
      return std::nullopt;
    }
    if (std::find(names.begin(), names.end(), name) != names.end()) {
      if (error != nullptr) {
        *error = "optimizer pass \"" + name + "\" listed twice";
      }
      return std::nullopt;
    }
    names.push_back(name);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return names;
}

void run_pipeline(DeploymentPlan& plan,
                  const std::vector<std::string>& names) {
  if (names.empty()) return;
  rdo::obs::TraceSpan span("opt:pipeline", "opt");
  span.arg("passes", static_cast<std::int64_t>(names.size()));
  const std::int64_t before = plan.total_offset_registers();
  for (const std::string& name : names) {
    if (name != kColorOffsetRegisters) {
      throw std::invalid_argument("run_pipeline: unknown optimizer pass \"" +
                                  name + '"');
    }
    color_offset_registers(plan);
    check_layer_geometry(plan);
    check_color_offset_registers(plan);
    rdo::obs::global_metrics().counter("opt_pass_runs").add();
  }
  const std::int64_t after = plan.total_offset_registers();
  span.arg("registers_before", before);
  span.arg("registers_after", after);
  if (after < before) {
    rdo::obs::global_metrics()
        .counter("opt_registers_saved")
        .add(before - after);
  }
}

}  // namespace rdo::core::opt
