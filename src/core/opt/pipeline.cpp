// Optimizer pass pipeline over a compiled DeploymentPlan.
//
// A shipped pass is conservative: it only rewrites a plan when the
// result is provably equivalent at execution time (identical effective
// weights for the same programming draws), so enabling it can shrink the
// Table II offset-register account but never perturb eval accuracy of
// non-PWT schemes. Passes that would interfere with post-writing tuning
// skip PWT schemes entirely (see core/opt/pass.h).
#include "core/opt/pipeline.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/check.h"
#include "core/opt/pass.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rdo::core::opt {

namespace {

/// Structural consistency every pass must preserve; run_pipeline checks
/// it after each transform in addition to the pass's own invariant.
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

/// Offset-register coloring/sharing across tiles.
///
/// Accounting-only: groups whose registers would hold the identical
/// (offset value, complement flag) pair can share one physical register
/// across the layer's tiles, so the layer's register count drops to the
/// number of distinct pairs. The assignment itself is untouched.
class ColorOffsetRegisters final : public Pass {
 public:
  [[nodiscard]] const char* name() const override {
    return "color_offset_registers";
  }

  static std::int64_t distinct_registers(const PlanLayer& pl) {
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

  void run(DeploymentPlan& plan) const override {
    if (scheme_uses_pwt(plan.opt.scheme)) return;
    std::int64_t saved = 0;
    for (PlanLayer& pl : plan.layers) {
      const std::int64_t colored =
          std::min(pl.offset_registers, distinct_registers(pl));
      saved += pl.offset_registers - colored;
      pl.offset_registers = colored;
    }
    rdo::obs::global_metrics()
        .counter("opt_registers_colored_away")
        .add(saved);
  }

  void check(const DeploymentPlan& plan) const override {
    if (scheme_uses_pwt(plan.opt.scheme)) return;
    for (const PlanLayer& pl : plan.layers) {
      RDO_CHECK(pl.offset_registers <= distinct_registers(pl),
                "color_offset_registers: register count exceeds the "
                "distinct (offset, complement) values");
    }
  }
};

const std::vector<std::unique_ptr<Pass>>& registry() {
  static const auto* passes = [] {
    auto* v = new std::vector<std::unique_ptr<Pass>>();
    v->push_back(std::make_unique<ColorOffsetRegisters>());
    return v;
  }();
  return *passes;
}

const Pass* find_pass(const std::string& name) {
  for (const auto& p : registry()) {
    if (name == p->name()) return p.get();
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& registered_passes() {
  static const auto* names = [] {
    auto* v = new std::vector<std::string>();
    for (const auto& p : registry()) v->emplace_back(p->name());
    return v;
  }();
  return *names;
}

std::optional<std::vector<std::string>> parse_pass_list(
    const std::string& spec, std::string* error) {
  std::vector<std::string> names;
  if (spec.empty()) return names;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string name = spec.substr(start, end - start);
    if (name.empty()) {
      if (error != nullptr) *error = "empty pass name in pass list";
      return std::nullopt;
    }
    if (find_pass(name) == nullptr) {
      if (error != nullptr) {
        std::string known;
        for (const std::string& n : registered_passes()) {
          if (!known.empty()) known += ", ";
          known += n;
        }
        *error = "unknown optimizer pass \"" + name + "\" (known: " +
                 known + ")";
      }
      return std::nullopt;
    }
    for (const std::string& seen : names) {
      if (seen == name) {
        if (error != nullptr) {
          *error = "optimizer pass \"" + name + "\" listed twice";
        }
        return std::nullopt;
      }
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
  rdo::obs::TraceSpan pipeline_span("opt:pipeline", "opt");
  pipeline_span.arg("passes", static_cast<std::int64_t>(names.size()));
  for (const std::string& name : names) {
    const Pass* pass = find_pass(name);
    if (pass == nullptr) {
      throw std::invalid_argument("run_pipeline: unknown optimizer pass \"" +
                                  name + '"');
    }
    rdo::obs::TraceSpan span(("opt:" + name).c_str(), "opt");
    const std::int64_t before = plan.total_offset_registers();
    pass->run(plan);
    check_layer_geometry(plan);
    pass->check(plan);
    const std::int64_t after = plan.total_offset_registers();
    span.arg("registers_before", before);
    span.arg("registers_after", after);
    rdo::obs::global_metrics().counter("opt_pass_runs").add();
    if (after < before) {
      rdo::obs::global_metrics()
          .counter("opt_registers_saved")
          .add(before - after);
    }
    plan.passes_applied.push_back(name);
  }
}

}  // namespace rdo::core::opt
