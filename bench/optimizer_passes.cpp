// Ablation bench for the core/opt plan-optimizer passes (DESIGN.md §5).
//
// Two questions, answered on the same trained MLP the design ablation
// uses:
//   1. Parity — enabling the full pass pipeline must not cost accuracy:
//      every scheme x cell grid point is deployed with the pipeline off
//      and on, and both mean accuracies are recorded side by side.
//   2. Savings — what the pipeline saves: the plan's offset-register
//      count, Table II overhead area/power (arch::plan_overhead) and
//      per-inference offset energy (arch::vmm_energy at the plan's m)
//      are recorded without and with it.
// Everything recorded here is compile-time deterministic: same binary,
// same numbers, any RDO_THREADS (the CI opt-parity job relies on this).
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "arch/energy.h"
#include "arch/isaac_cost.h"
#include "common.h"
#include "core/opt/pipeline.h"
#include "core/plan.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "quant/act_quant.h"

using namespace rdo;
using namespace rdo::bench;
using core::Scheme;

namespace {

struct Fixture {
  data::SyntheticDataset ds;
  nn::Sequential net;
  float ideal = 0.0f;

  Fixture() {
    data::SyntheticSpec spec = data::mnist_like();
    spec.train_per_class = 60;
    spec.test_per_class = 20;
    ds = data::make_synthetic(spec);
    nn::Rng rng(21);
    net.emplace<nn::Flatten>();
    net.emplace<quant::ActQuant>(8);
    net.emplace<nn::Dense>(28 * 28, 64, rng);
    net.emplace<nn::ReLU>();
    net.emplace<quant::ActQuant>(8);
    net.emplace<nn::Dense>(64, 10, rng);
    nn::SGD opt(net.params(), 0.05f);
    for (int e = 0; e < 6; ++e) {
      nn::train_epoch(net, opt, ds.train(), 32, rng);
    }
    ideal = nn::evaluate(net, ds.test(), 64).accuracy;
  }

  float run(obs::BenchReport& rep, const std::string& label,
            core::DeployOptions o) {
    obs::TraceSpan t("parity_sweep", "phase", rep.phase("parity_sweep"));
    const auto res = core::run_scheme(net, o, ds.train(), ds.test(), kRepeats);
    record_scheme_result(rep, label, o, res);
    return res.failed() ? std::numeric_limits<float>::quiet_NaN()
                        : res.mean_accuracy;
  }
};

/// Deterministic hardware accounting of one (possibly optimized) plan:
/// registers kept, Table II area/power and the offset share of one
/// inference's energy, every crossbar priced at the plan's m.
struct PlanCost {
  long long registers = 0;
  double area_mm2 = 0.0;
  double power_mw = 0.0;
  double offset_pj = 0.0;
};

PlanCost plan_cost(const core::DeploymentPlan& plan, int offset_bits) {
  PlanCost c;
  std::vector<arch::LayerOffsetCost> lc;
  const double state_sum =
      plan.assigned_read_power() /
      static_cast<double>(plan.total_crossbars());
  arch::VmmGeometry g;
  g.m = plan.opt.offsets.m;
  const double offset_pj_per_xbar = arch::vmm_energy(g, state_sum).offset_pj;
  for (std::size_t li = 0; li < plan.layers.size(); ++li) {
    const core::PlanLayer& pl = plan.layers[li];
    const auto xbars =
        static_cast<long long>(plan.layer_tiling(li).total_crossbars());
    lc.push_back({xbars, static_cast<long long>(pl.offset_registers)});
    c.offset_pj += offset_pj_per_xbar * static_cast<double>(xbars);
  }
  const double ratio = plan.assigned_read_power() / plan.plain_read_power();
  const arch::PlanOverhead ov =
      arch::plan_overhead(lc, plan.opt.offsets.m, offset_bits, ratio);
  c.registers = ov.registers;
  c.area_mm2 = ov.area_mm2;
  c.power_mw = ov.power_mw;
  return c;
}

}  // namespace

int main() {
  obs::BenchReport rep("optimizer_passes", 2021);

  std::unique_ptr<Fixture> f;
  {
    obs::TraceSpan t("train_models", "phase", rep.phase("train_models"));
    f = std::make_unique<Fixture>();
  }
  rep.results()["ideal_accuracy"] = static_cast<double>(f->ideal);

  const std::vector<std::string>& passes = core::opt::registered_passes();
  std::string all_passes;
  for (const std::string& p : passes) {
    if (!all_passes.empty()) all_passes += ',';
    all_passes += p;
  }

  std::printf("=== optimizer passes (MLP, sigma = 0.5, m = 16) ===\n");
  std::printf("ideal accuracy: %.2f%%\n", 100 * f->ideal);

  // [1] Parity grid: pipeline off vs on, every scheme x cell point.
  std::printf("\n[1] accuracy parity: pipeline off -> on\n");
  const struct {
    Scheme scheme;
    const char* name;
  } schemes[] = {{Scheme::Plain, "plain"},
                 {Scheme::VAWOStar, "vawo*"},
                 {Scheme::VAWOStarPWT, "vawo*+pwt"}};
  const struct {
    rram::CellKind cell;
    const char* name;
  } cells[] = {{rram::CellKind::SLC, "SLC"}, {rram::CellKind::MLC2, "MLC2"}};
  for (const auto& s : schemes) {
    for (const auto& cl : cells) {
      auto off = bench_options(s.scheme, 16, cl.cell, 0.5);
      auto on = off;
      on.opt_passes = all_passes;
      const std::string tag =
          std::string(s.name) + "/" + cl.name;
      const float a_off = f->run(rep, "parity/" + tag + "/off", off);
      const float a_on = f->run(rep, "parity/" + tag + "/on", on);
      std::printf("  %-16s off %.1f%%  on %.1f%%  (delta %+.2f%%)\n",
                  tag.c_str(), 100 * a_off, 100 * a_on,
                  100 * (a_on - a_off));
    }
  }

  // [2] Savings of the pipeline on the VAWO*/SLC plan, compiled once
  // without passes and then run through the pipeline on a copy.
  std::printf("\n[2] per-pass savings (VAWO*, SLC): registers / area / "
              "power / offset energy\n");
  const auto base_opt =
      bench_options(Scheme::VAWOStar, 16, rram::CellKind::SLC, 0.5);
  const core::DeploymentPlan base = [&] {
    obs::TraceSpan t("compile_base_plan", "phase",
                     rep.phase("compile_base_plan"));
    return core::compile_plan(f->net, base_opt, f->ds.train());
  }();
  core::DeploymentPlan full = base;
  {
    obs::TraceSpan t("run_pipeline", "phase", rep.phase("run_pipeline"));
    core::opt::run_pipeline(full, passes);
  }
  rep.results()["savings"] = obs::Json::array();
  // Prints the plan's costs after its label and records them as one row.
  const auto add_row = [&](const std::string& applied,
                           const core::DeploymentPlan& p) {
    const PlanCost c = plan_cost(p, base_opt.offsets.offset_bits);
    std::printf("%8lld  %7.4f mm^2  %7.2f mW  %9.1f pJ\n", c.registers,
                c.area_mm2, c.power_mw, c.offset_pj);
    obs::Json row = obs::Json::object();
    row["passes"] = applied;
    row["offset_registers"] = static_cast<std::int64_t>(c.registers);
    row["area_mm2"] = c.area_mm2;
    row["power_mw"] = c.power_mw;
    row["offset_energy_pj"] = c.offset_pj;
    rep.results()["savings"].push_back(std::move(row));
  };
  std::printf("  %-28s ", "(no passes)");
  add_row("", base);
  std::printf("  + %-26s ", all_passes.c_str());
  add_row(all_passes, full);

  // The acceptance invariant, checked here so a regression turns the
  // bench red: the pipeline must strictly shrink the register count on
  // this committed model.
  if (full.total_offset_registers() >= base.total_offset_registers()) {
    rep.add_failure("savings",
                    "full pipeline did not reduce offset registers");
  }
  std::printf(
      "\nexpected: [1] deltas are >= 0 everywhere (passes are parity- or\n"
      "improvement-only; PWT rows are no-ops by design); [2] registers,\n"
      "area and offset energy shrink monotonically as passes stack.\n");
  return finish_report(rep);
}
