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
/// entry, or one whose entry count does not match the weight bits, is
/// rebuilt (never silently reused — see RLut::load), and the
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
        // As plan load checks its embedded table: an entry of the wrong
        // size is corrupt, whatever its header says.
        if (cached.max_weight() != prog.max_weight()) {
          throw rdo::rram::LutError(path +
                                    ": entry count does not match the "
                                    "weight bits");
        }
        span.arg("cache_hit", std::int64_t{1});
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
    rdo::obs::global_metrics().counter("deploy_lut_cache_misses").add();
    try {
      lut.save(path, fp);
    } catch (const std::exception& e) {
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

rdo::rram::TilingInfo DeploymentPlan::layer_tiling(std::size_t li) const {
  const PlanLayer& pl = layers.at(li);
  return rdo::rram::compute_tiling(pl.lq.rows, pl.lq.cols, kCrossbarSize,
                                   kCrossbarSize, prog.cells_per_weight());
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

std::int64_t DeploymentPlan::total_crossbars() const {
  std::int64_t n = 0;
  for (std::size_t li = 0; li < layers.size(); ++li) {
    n += layer_tiling(li).total_crossbars();
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
  const std::vector<rdo::nn::MatrixOp*> ops = rdo::nn::matrix_ops(*work);
  const std::vector<rdo::quant::ActQuant*> aqs =
      rdo::nn::layers_of<rdo::quant::ActQuant>(*work);
  RDO_CHECK(!ops.empty(), "compile_plan: network has no crossbar layers");

  rdo::obs::TraceSpan span("deploy:prepare", "deploy",
                           &plan.compile_stats.prepare_s);
  span.arg("layers", static_cast<std::int64_t>(ops.size()));

  // 1. Quantize every crossbar layer and move the twin to the quantized
  //    operating point (NTW round-trip).
  plan.layers.resize(ops.size());
  for (std::size_t li = 0; li < ops.size(); ++li) {
    PlanLayer& pl = plan.layers[li];
    pl.lq = rdo::quant::quantize_matrix(*ops[li], opt.weight_bits);
    rdo::quant::apply_quantized(*ops[li], pl.lq);
  }
  if (!aqs.empty()) {
    // Observe activation ranges on a few batches at the quantized-weight
    // operating point, then freeze the calibration into the plan.
    for (auto* aq : aqs) aq->disable();
    const std::int64_t n = std::min<std::int64_t>(train.size(), 128);
    (void)work->forward(rdo::nn::take_batch(train, 0, n).images,
                        /*train=*/false);
    plan.act_max_abs.reserve(aqs.size());
    for (auto* aq : aqs) {
      plan.act_max_abs.push_back(aq->observed_max());
      aq->calibrate(aq->observed_max());
    }
  }

  // 2. Scheme-dependent CTW/offset assignment.
  if (scheme_uses_vawo(opt.scheme)) {
    accumulate_mean_gradients(*work, train, kGradBatch,
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
    std::vector<double> grads;
    for (std::size_t li = 0; li < plan.layers.size(); ++li) {
      PlanLayer& pl = plan.layers[li];
      rdo::obs::TraceSpan layer_span("vawo:layer", "deploy");
      layer_span.arg("layer", static_cast<std::int64_t>(li));
      layer_span.arg("rows", pl.lq.rows);
      layer_span.arg("cols", pl.lq.cols);
      const std::span<const float> g = ops[li]->weight_grads();
      grads.assign(g.begin(), g.end());
      pl.assign = vawo_layer(pl.lq, grads, vtable, vopt);
      layer_span.arg("groups", pl.assign.groups_per_col);
    }
  } else {
    for (PlanLayer& pl : plan.layers) {
      pl.assign = plain_layer(pl.lq, opt.offsets.m);
    }
  }

  // 3. Seed the per-layer register counts (the optimizer passes refine
  //    them), then run the configured pass pipeline over the frozen plan.
  //    The pipeline runs inside the uncached path on purpose: the plan
  //    cache stores optimized plans, keyed by a fingerprint that covers
  //    the pass list.
  for (PlanLayer& pl : plan.layers) {
    pl.offset_registers =
        groups_per_column(pl.lq.rows, opt.offsets.m) * pl.lq.cols;
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

/// RDO_PLAN_CACHE_DIR, or nullptr when it is unset or empty.
const char* plan_cache_dir() {
  const char* dir = rdo::obs::env_knob("RDO_PLAN_CACHE_DIR");
  return dir != nullptr && dir[0] != '\0' ? dir : nullptr;
}

/// Opt-in shared plan cache, mirroring the RDO_LUT_CACHE_DIR protocol:
/// keyed by the full config fingerprint `fp`, stale entries recompiled,
/// corrupt entries recompiled and healed by the atomic re-save.
DeploymentPlan compile_plan_cached(const rdo::nn::Layer& net,
                                   const DeployOptions& opt,
                                   const rdo::nn::DataView& train,
                                   const char* dir, std::uint64_t fp) {
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
  rdo::obs::global_metrics().counter("deploy_plan_cache_misses").add();
  try {
    plan.save(path, fp);
  } catch (const std::exception& e) {
    rdo::obs::global_metrics()
        .counter("deploy_plan_cache_save_failures")
        .add();
    rdo::obs::log_warn("deploy", "cannot cache plan")
        .with("path", path)
        .with("error", e.what());
  }
  return plan;
}

}  // namespace

DeploymentPlan compile_plan(const rdo::nn::Layer& net,
                            const DeployOptions& opt,
                            const rdo::nn::DataView& train) {
  // DeployOptions crosses the API boundary (CLI flags, bench configs,
  // serve requests): reject it before anything derives sizes from it.
  check_options(opt);
  const char* dir = plan_cache_dir();
  if (dir == nullptr) return compile_plan_uncached(net, opt, train);
  return compile_plan_cached(net, opt, train, dir,
                             plan_fingerprint(net, opt, train));
}

DeploymentPlan compile_plan(const rdo::nn::Layer& net,
                            const DeployOptions& opt,
                            const rdo::nn::DataView& train,
                            std::uint64_t fingerprint) {
  check_options(opt);
#ifdef RDO_CHECK_PLAN_FINGERPRINT
  RDO_CHECK(fingerprint == plan_fingerprint(net, opt, train),
            "compile_plan: fingerprint is not plan_fingerprint(net, opt, "
            "train)");
#endif
  const char* dir = plan_cache_dir();
  if (dir == nullptr) return compile_plan_uncached(net, opt, train);
  return compile_plan_cached(net, opt, train, dir, fingerprint);
}

}  // namespace rdo::core
