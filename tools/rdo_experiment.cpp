// rdo_experiment — command-line experiment runner.
//
// Deploys a freshly-trained model onto simulated RRAM crossbars with any
// combination of the paper's knobs and prints the measured accuracy and
// hardware accounting. Intended for quick what-if studies without writing
// code:
//
//   rdo_experiment --model lenet --scheme vawo*+pwt --sigma 0.5 --m 16
//   rdo_experiment --model mlp --scheme plain --cell mlc2 --repeats 5
//   rdo_experiment --model resnet --scheme vawo* --sigma 0.8 --ddv 0.5
//   rdo_experiment --model mlp --json results.json
//
// Flag parsing lives in experiment_args.{h,cpp} (strict, bounds-checked;
// malformed input exits 2). With --json the run also writes the same
// schema-versioned document the bench harnesses emit (see EXPERIMENTS.md).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "arch/isaac_cost.h"
#include "core/deploy.h"
#include "core/opt/pipeline.h"
#include "obs/envvar.h"
#include "core/plan.h"
#include "data/synthetic.h"
#include "experiment_args.h"
#include "models/lenet.h"
#include "models/resnet.h"
#include "models/vgg.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "quant/act_quant.h"

using namespace rdo;

int main(int argc, char** argv) {
  tools::ExperimentArgs a;
  const tools::ParseOutcome parsed =
      tools::parse_experiment_args(argc, argv, a);
  if (!parsed.ok) {
    std::fprintf(stderr, "rdo_experiment: %s\n\n%s", parsed.error.c_str(),
                 tools::experiment_usage());
    return 2;
  }
  if (a.help) {
    std::fputs(tools::experiment_usage(), stdout);
    return 0;
  }

  // Optimizer pass pipeline (core/opt): validated up front so a typo in
  // the environment fails fast like a malformed flag, before any training.
  std::string opt_passes;
  if (const char* passes = rdo::obs::env_knob("RDO_OPT_PASSES")) {
    std::string err;
    if (!core::opt::parse_pass_list(passes, &err)) {
      std::fprintf(stderr, "rdo_experiment: RDO_OPT_PASSES: %s\n",
                   err.c_str());
      return 2;
    }
    opt_passes = passes;
  }

  obs::BenchReport rep("rdo_experiment", a.seed);

  // Dataset + model.
  const bool is_cifar = a.model == "resnet" || a.model == "vgg";
  data::SyntheticSpec spec =
      is_cifar ? data::cifar_like() : data::mnist_like();
  spec.train_per_class = 60;
  spec.test_per_class = 20;
  const data::SyntheticDataset ds = data::make_synthetic(spec);

  nn::Rng rng(a.seed);
  std::unique_ptr<nn::Sequential> net;
  float lr = 0.02f;
  int epochs = 10;
  if (a.model == "mlp") {
    net = std::make_unique<nn::Sequential>();
    net->emplace<nn::Flatten>();
    net->emplace<quant::ActQuant>(8);
    net->emplace<nn::Dense>(28 * 28, 64, rng);
    net->emplace<nn::ReLU>();
    net->emplace<quant::ActQuant>(8);
    net->emplace<nn::Dense>(64, 10, rng);
    lr = 0.05f;
    epochs = 6;
  } else if (a.model == "lenet") {
    net = models::make_lenet({}, rng);
  } else if (a.model == "resnet") {
    models::ResNetConfig cfg;
    cfg.base_channels = 8;
    net = models::make_resnet(cfg, rng);
    epochs = 12;
  } else {  // "vgg" (validated by the parser)
    models::VggConfig cfg;
    cfg.base_channels = 8;
    net = models::make_vgg(cfg, rng);
    epochs = 12;
  }

  std::printf("training %s ...\n", a.model.c_str());
  float ideal = 0.0f;
  {
    obs::TraceSpan t("train_model", "phase", rep.phase("train_model"));
    nn::SGD opt(net->params(), lr, 0.9f, 1e-4f);
    for (int e = 0; e < epochs; ++e) {
      nn::train_epoch(*net, opt, ds.train(), 32, rng);
    }
    ideal = nn::evaluate(*net, ds.test(), 64).accuracy;
  }
  std::printf("ideal accuracy: %.2f%%\n\n", 100 * ideal);

  // Deployment. The parser already validated the scheme name through the
  // same core::parse_scheme table, so the optional is always engaged.
  core::DeployOptions o;
  o.scheme = core::parse_scheme(a.scheme).value_or(core::Scheme::VAWOStarPWT);
  o.offsets.m = a.m;
  o.offsets.offset_bits = a.offset_bits;
  o.cell = {a.cell == "mlc2" ? rram::CellKind::MLC2 : rram::CellKind::SLC,
            200.0};
  o.variation.sigma = a.sigma;
  o.variation.ddv_fraction = a.ddv;
  o.variation.scope = a.scope == "per-cell"
                          ? rram::VariationScope::PerCell
                          : rram::VariationScope::PerWeight;
  o.seed = a.seed;
  o.opt_passes = opt_passes;

  std::printf("deploying: scheme=%s cell=%s sigma=%.2f ddv=%.2f m=%d "
              "bits=%d scope=%s repeats=%d\n",
              core::to_string(o.scheme), a.cell.c_str(), a.sigma, a.ddv,
              a.m, a.offset_bits, a.scope.c_str(), a.repeats);

  rep.results()["config"] = obs::Json::object();
  {
    obs::Json& cfg = rep.results()["config"];
    cfg["model"] = a.model;
    cfg["scheme"] = a.scheme;
    cfg["cell"] = a.cell;
    cfg["scope"] = a.scope;
    cfg["sigma"] = a.sigma;
    cfg["ddv"] = a.ddv;
    cfg["m"] = a.m;
    cfg["offset_bits"] = a.offset_bits;
    cfg["repeats"] = a.repeats;
  }
  rep.results()["ideal_accuracy"] = static_cast<double>(ideal);

  try {
    core::SchemeResult res;
    {
      obs::TraceSpan t("deployment", "phase", rep.phase("deployment"));
      res = core::run_scheme(*net, o, ds.train(), ds.test(), a.repeats);
    }
    for (std::size_t trial = 0; trial < res.errors.size(); ++trial) {
      const std::string& err = res.errors[trial];
      if (err.empty()) continue;
      rep.add_failure("deployment trial " + std::to_string(trial), err);
      std::fprintf(stderr, "rdo_experiment: deployment trial %zu failed: %s\n",
                   trial, err.c_str());
    }
    std::printf("\naccuracy under variation: %.2f%% (loss vs ideal: %.2f%%)\n",
                100 * res.mean_accuracy,
                100 * (ideal - res.mean_accuracy));
    std::printf("per-cycle:");
    for (float acc : res.per_cycle) std::printf(" %.2f%%", 100 * acc);
    std::printf("\n");

    rep.results()["mean_accuracy"] = static_cast<double>(res.mean_accuracy);
    obs::Json per_cycle = obs::Json::array();
    for (float acc : res.per_cycle) {
      per_cycle.push_back(static_cast<double>(acc));
    }
    rep.results()["per_cycle"] = std::move(per_cycle);
    rep.results()["stats"] = core::deploy_stats_json(res.stats);
    core::add_scheme_timings(rep, res);

    // Hardware accounting for the chosen configuration, read off a
    // compiled plan (the network itself is left untouched).
    obs::TraceSpan t("hardware_accounting", "phase",
                     rep.phase("hardware_accounting"));
    const core::DeploymentPlan plan = core::compile_plan(*net, o, ds.train());
    const double ratio = plan.assigned_read_power() / plan.plain_read_power();
    std::printf("\ncrossbars (128x128): %lld\n",
                static_cast<long long>(plan.total_crossbars()));
    std::printf("offset registers: %lld\n",
                static_cast<long long>(plan.total_offset_registers()));
    std::printf("device reading power vs plain: %.1f%%\n", 100 * ratio);
    const arch::TileOverhead ov = arch::tile_overhead(a.m, a.offset_bits,
                                                      ratio);
    std::printf("ISAAC tile overhead: +%.3f mm^2 (%.1f%%), %+.2f mW "
                "(%.1f%%)\n",
                ov.area_mm2, ov.area_pct, ov.power_mw, ov.power_pct);

    obs::Json& hw = rep.results()["hardware"];
    hw = obs::Json::object();
    hw["crossbars"] = static_cast<std::int64_t>(plan.total_crossbars());
    hw["offset_registers"] =
        static_cast<std::int64_t>(plan.total_offset_registers());
    hw["read_power_ratio"] = ratio;
    hw["tile_area_mm2"] = ov.area_mm2;
    hw["tile_power_mw"] = ov.power_mw;

    // Plan-aware overhead, only with an optimizer pipeline configured:
    // the default run's stdout and JSON stay byte-identical to builds
    // without the optimizer (the bench-json CI gate diffs them).
    if (!o.opt_passes.empty()) {
      std::vector<arch::LayerOffsetCost> lc;
      for (std::size_t li = 0; li < plan.layers.size(); ++li) {
        const core::PlanLayer& pl = plan.layers[li];
        lc.push_back({pl.m,
                      static_cast<long long>(
                          plan.layer_tiling(li).total_crossbars()),
                      static_cast<long long>(pl.offset_registers)});
      }
      const arch::PlanOverhead pov =
          arch::plan_overhead(lc, a.offset_bits, ratio);
      std::printf("optimized plan (passes: %s):\n", o.opt_passes.c_str());
      std::printf("  offset registers after passes: %lld\n",
                  static_cast<long long>(pov.registers));
      std::printf("  plan overhead: +%.3f mm^2 (%.1f%%), %+.2f mW (%.1f%%)\n",
                  pov.area_mm2, pov.area_pct, pov.power_mw, pov.power_pct);
      rep.results()["config"]["opt_passes"] = o.opt_passes;
      obs::Json applied = obs::Json::array();
      for (const std::string& name : plan.passes_applied) {
        applied.push_back(name);
      }
      hw["opt_passes_applied"] = std::move(applied);
      hw["plan_area_mm2"] = pov.area_mm2;
      hw["plan_power_mw"] = pov.power_mw;
      obs::Json per_layer_m = obs::Json::array();
      for (const core::PlanLayer& pl : plan.layers) {
        per_layer_m.push_back(static_cast<std::int64_t>(pl.m));
      }
      hw["per_layer_m"] = std::move(per_layer_m);
    }
  } catch (const std::exception& e) {
    rep.add_failure("deployment", e.what());
    std::fprintf(stderr, "rdo_experiment: deployment failed: %s\n", e.what());
  }

  if (!a.json_path.empty()) {
    try {
      rep.write_to(a.json_path);
      std::fprintf(stderr, "[rdo_experiment] wrote %s\n",
                   a.json_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rdo_experiment: cannot write %s: %s\n",
                   a.json_path.c_str(), e.what());
      return 1;
    }
  }
  return rep.exit_code();
}
