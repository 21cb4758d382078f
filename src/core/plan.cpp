#include "core/plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/check.h"
#include "core/opt/pipeline.h"
#include "obs/envvar.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quant/act_quant.h"

namespace rdo::core {

namespace {

/// Build the deployment LUT, timing the construction. When the
/// RDO_LUT_CACHE_DIR environment variable names a directory, tables are
/// cached there under their config fingerprint: a stale or corrupt
/// entry is rebuilt (never silently reused — see RLut::load), and the
/// file is written atomically (temp + rename) so concurrent deployments
/// sharing a cache directory only ever observe complete tables.
rdo::rram::RLut make_lut(const rdo::rram::WeightProgrammer& prog,
                         const DeployOptions& opt, DeployStats& stats) {
  rdo::obs::TraceSpan span("deploy:lut_build", "deploy", &stats.lut_build_s);
  span.arg("k_sets", opt.lut_k_sets);
  span.arg("j_cycles", opt.lut_j_cycles);
  const rdo::nn::Rng lut_rng = rdo::nn::Rng(opt.seed).split(0x11A7);
  const char* dir = rdo::obs::env_knob("RDO_LUT_CACHE_DIR");
  std::string path;
  std::uint64_t fp = 0;
  if (dir != nullptr && dir[0] != '\0') {
    fp = rdo::rram::RLut::fingerprint(prog, opt.lut_k_sets,
                                      opt.lut_j_cycles, opt.seed);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fp));
    path = std::string(dir) + "/rlut_" + hex + ".bin";
    rdo::rram::RLut cached;
    try {
      if (rdo::rram::RLut::load(path, fp, cached)) {
        span.arg("cache_hit", std::int64_t{1});
        ++stats.lut_cache_hits;
        rdo::obs::global_metrics().counter("deploy_lut_cache_hits").add();
        return cached;
      }
    } catch (const std::exception& e) {
      rdo::obs::log_warn("deploy", "corrupt LUT cache entry; rebuilding")
          .with("path", path)
          .with("error", e.what());
    }
  }
  span.arg("cache_hit", std::int64_t{0});
  rdo::rram::RLut lut = rdo::rram::RLut::build(prog, opt.lut_k_sets,
                                               opt.lut_j_cycles, lut_rng);
  if (!path.empty()) {
    // A stale or corrupt entry lands here too and gets overwritten by
    // the rebuilt table (atomically), healing the cache in place.
    ++stats.lut_cache_misses;
    rdo::obs::global_metrics().counter("deploy_lut_cache_misses").add();
    try {
      lut.save(path, fp);
    } catch (const std::exception& e) {
      ++stats.lut_cache_save_failures;
      rdo::obs::global_metrics()
          .counter("deploy_lut_cache_save_failures")
          .add();
      rdo::obs::log_warn("deploy", "cannot cache LUT")
          .with("path", path)
          .with("error", e.what());
    }
  }
  return lut;
}

double read_power_of(const rdo::rram::WeightProgrammer& prog,
                     const rdo::rram::CellModel& cell,
                     const std::vector<int>& weights) {
  double p = 0.0;
  for (int v : weights) {
    for (int s : prog.slice(v)) p += cell.read_power(s);
  }
  return p;
}

}  // namespace

rdo::rram::TilingInfo DeploymentPlan::layer_tiling(std::size_t li,
                                                   int xbar_rows,
                                                   int xbar_cols) const {
  const PlanLayer& pl = layers.at(li);
  return rdo::rram::compute_tiling(pl.fan_in, pl.fan_out, xbar_rows,
                                   xbar_cols, prog.cells_per_weight());
}

double DeploymentPlan::assigned_read_power() const {
  double p = 0.0;
  for (const PlanLayer& pl : layers) {
    p += read_power_of(prog, opt.cell, pl.assign.ctw);
  }
  return p;
}

double DeploymentPlan::plain_read_power() const {
  double p = 0.0;
  for (const PlanLayer& pl : layers) {
    p += read_power_of(prog, opt.cell, pl.lq.q);
  }
  return p;
}

std::int64_t DeploymentPlan::total_crossbars(int xbar_rows,
                                             int xbar_cols) const {
  std::int64_t n = 0;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    n += layer_tiling(li, xbar_rows, xbar_cols).total_crossbars();
  }
  return n;
}

std::int64_t DeploymentPlan::total_offset_registers() const {
  std::int64_t n = 0;
  for (const PlanLayer& pl : layers) n += pl.offset_registers;
  return n;
}

namespace {

/// The actual compile stage (cache-oblivious); compile_plan wraps it
/// with the optional RDO_PLAN_CACHE_DIR lookup.
DeploymentPlan compile_plan_uncached(const rdo::nn::Layer& net,
                                     const DeployOptions& opt,
                                     const rdo::nn::DataView& train) {
  DeploymentPlan plan(opt);
  plan.lut = make_lut(plan.prog, opt, plan.compile_stats);

  // Work on a private twin so compilation can move it to the quantized
  // operating point without mutating the caller's network.
  std::unique_ptr<rdo::nn::Layer> work = net.clone();
  std::vector<rdo::nn::Layer*> all;
  collect_layers(work.get(), all);
  std::vector<rdo::nn::MatrixOp*> ops;
  std::vector<rdo::quant::ActQuant*> aqs;
  for (rdo::nn::Layer* l : all) {
    if (auto* op = dynamic_cast<rdo::nn::MatrixOp*>(l)) ops.push_back(op);
    if (auto* aq = dynamic_cast<rdo::quant::ActQuant*>(l)) aqs.push_back(aq);
  }
  RDO_CHECK(!ops.empty(), "compile_plan: network has no crossbar layers");

  rdo::obs::TraceSpan span("deploy:prepare", "deploy",
                           &plan.compile_stats.prepare_s);
  span.arg("layers", static_cast<std::int64_t>(ops.size()));

  // 1. Quantize every crossbar layer and move the twin to the quantized
  //    operating point (NTW round-trip).
  plan.layers.resize(ops.size());
  for (std::size_t li = 0; li < ops.size(); ++li) {
    PlanLayer& pl = plan.layers[li];
    pl.fan_in = ops[li]->fan_in();
    pl.fan_out = ops[li]->fan_out();
    pl.lq = rdo::quant::quantize_matrix(*ops[li], opt.weight_bits);
    rdo::quant::apply_quantized(*ops[li], pl.lq);
  }
  if (opt.quantize_activations && !aqs.empty()) {
    // Observe activation ranges on a few batches at the quantized-weight
    // operating point, then freeze the calibration into the plan.
    for (auto* aq : aqs) aq->disable();
    const std::int64_t n = std::min<std::int64_t>(train.size(), 128);
    std::vector<std::int64_t> idx;
    for (std::int64_t i = 0; i < n; ++i) idx.push_back(i);
    rdo::nn::Tensor batch = gather_batch(*train.images, idx);
    (void)work->forward(batch, /*train=*/false);
    plan.act_calib.reserve(aqs.size());
    for (auto* aq : aqs) {
      plan.act_calib.push_back({aq->bits(), aq->observed_max()});
      aq->calibrate(aq->observed_max());
    }
  }

  // 2. Scheme-dependent CTW/offset assignment.
  if (scheme_uses_vawo(opt.scheme)) {
    accumulate_mean_gradients(*work, train, opt.grad_batch,
                              opt.grad_samples);
    VawoOptions vopt;
    vopt.offsets = opt.offsets;
    vopt.use_complement = scheme_uses_complement(opt.scheme);
    vopt.penalize_bias = opt.penalize_bias;
    rdo::obs::TraceSpan solve_span("deploy:vawo_solve", "deploy",
                                   &plan.compile_stats.vawo_solve_s);
    // Every layer is quantized to the same weight width, so one dense
    // target-value cost table (see core/vawo.h) serves the whole plan;
    // build it once here, timed inside the solve phase.
    VawoTable vtable;
    {
      rdo::obs::TraceSpan table_span("vawo:table", "deploy");
      vtable = VawoTable::build(plan.lut, (1 << opt.weight_bits) - 1,
                                opt.offsets, opt.penalize_bias);
      table_span.arg("entries", static_cast<std::int64_t>(vtable.size()));
    }
    for (std::size_t li = 0; li < plan.layers.size(); ++li) {
      PlanLayer& pl = plan.layers[li];
      rdo::obs::TraceSpan layer_span("vawo:layer", "deploy");
      layer_span.arg("layer", static_cast<std::int64_t>(li));
      layer_span.arg("rows", pl.lq.rows);
      layer_span.arg("cols", pl.lq.cols);
      pl.mean_grads.resize(static_cast<std::size_t>(pl.lq.rows *
                                                    pl.lq.cols));
      for (std::int64_t r = 0; r < pl.lq.rows; ++r) {
        for (std::int64_t c = 0; c < pl.lq.cols; ++c) {
          pl.mean_grads[static_cast<std::size_t>(r * pl.lq.cols + c)] =
              ops[li]->weight_grad_at(r, c);
        }
      }
      pl.assign = vawo_layer(pl.lq, pl.mean_grads, vtable, vopt);
      layer_span.arg("groups", pl.assign.groups_per_col);
    }
  } else {
    for (PlanLayer& pl : plan.layers) {
      pl.assign = plain_layer(pl.lq, opt.offsets.m);
    }
  }

  // 3. Seed the per-layer execution metadata (the optimizer passes refine
  //    it), then run the configured pass pipeline over the frozen plan.
  //    The pipeline runs inside the uncached path on purpose: the plan
  //    cache stores optimized plans, keyed by a fingerprint that covers
  //    the pass list.
  for (PlanLayer& pl : plan.layers) {
    pl.m = opt.offsets.m;
    pl.offset_registers = groups_per_column(pl.lq.rows, pl.m) * pl.lq.cols;
  }
  if (!opt.opt_passes.empty()) {
    std::string err;
    std::optional<std::vector<std::string>> names =
        opt::parse_pass_list(opt.opt_passes, &err);
    if (!names) {
      // Callers validate user input with parse_pass_list before building
      // DeployOptions; this is the defensive backstop.
      throw std::invalid_argument("compile_plan: " + err);
    }
    opt::run_pipeline(plan, *names);
  }
  return plan;
}

}  // namespace

DeploymentPlan compile_plan(const rdo::nn::Layer& net,
                            const DeployOptions& opt,
                            const rdo::nn::DataView& train) {
  // DeployOptions crosses the API boundary (CLI flags, bench configs):
  // reject hostile offset geometry before anything derives ranges from it.
  opt.offsets.validate();

  const char* dir = rdo::obs::env_knob("RDO_PLAN_CACHE_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    return compile_plan_uncached(net, opt, train);
  }

  // Opt-in shared plan cache, mirroring the RDO_LUT_CACHE_DIR protocol:
  // keyed by the full config fingerprint, stale entries recompiled,
  // corrupt entries recompiled and healed by the atomic re-save.
  const std::uint64_t fp = plan_fingerprint(net, opt, train);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fp));
  const std::string path = std::string(dir) + "/plan_" + hex + ".bin";
  {
    rdo::obs::TraceSpan span("deploy:plan_cache", "deploy");
    try {
      if (std::optional<DeploymentPlan> cached =
              DeploymentPlan::load(path, fp)) {
        span.arg("cache_hit", std::int64_t{1});
        cached->compile_stats.plan_cache_hits = 1;
        rdo::obs::global_metrics().counter("deploy_plan_cache_hits").add();
        return std::move(*cached);
      }
    } catch (const PlanError& e) {
      rdo::obs::log_warn("deploy", "corrupt plan cache entry; recompiling")
          .with("path", path)
          .with("error", e.what());
    }
    span.arg("cache_hit", std::int64_t{0});
  }

  DeploymentPlan plan = compile_plan_uncached(net, opt, train);
  plan.compile_stats.plan_cache_misses = 1;
  rdo::obs::global_metrics().counter("deploy_plan_cache_misses").add();
  try {
    plan.save(path, fp);
  } catch (const std::exception& e) {
    plan.compile_stats.plan_cache_save_failures = 1;
    rdo::obs::global_metrics()
        .counter("deploy_plan_cache_save_failures")
        .add();
    rdo::obs::log_warn("deploy", "cannot cache plan")
        .with("path", path)
        .with("error", e.what());
  }
  return plan;
}

}  // namespace rdo::core
