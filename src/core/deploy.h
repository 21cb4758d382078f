// End-to-end deployment of a trained network onto variation-afflicted
// RRAM crossbars, with the paper's full scheme matrix:
//
//   Plain        CTW = NTW, no offsets            (baseline, §IV "plain")
//   VAWO         variation-aware CTWs + offsets   (§III-B)
//   VAWOStar     VAWO + weight complement         (§III-C, "VAWO*")
//   PWT          plain CTWs, offsets trained post-writing (§III-D)
//   VAWOStarPWT  VAWO* then PWT                   (§IV-A3, the full method)
//
// The pipeline is split into a compile stage and an execution stage:
// compile_plan() (core/plan.h) runs everything scheme-dependent but
// backend-independent once, and an execution backend (core/backend.h,
// sim/device_backend.h) realizes programming cycles from the shared
// plan:  compile_plan (once)  ->  program_cycle  ->  tune  ->  evaluate.
// CCV means every cycle lands different CRWs; cycles are independent.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/offset.h"
#include "nn/layer.h"
#include "nn/trainer.h"
#include "obs/json.h"
#include "rram/cell.h"
#include "rram/faults.h"
#include "rram/variation.h"

namespace rdo::obs {
class BenchReport;
}  // namespace rdo::obs

namespace rdo::core {

enum class Scheme { Plain, VAWO, VAWOStar, PWT, VAWOStarPWT };

const char* to_string(Scheme s);
/// Inverse of to_string(Scheme): accepts the canonical display names
/// ("plain", "VAWO", "VAWO*", "PWT", "VAWO*+PWT") case-insensitively, so
/// the lowercase command-line spellings parse too. Returns nullopt for
/// anything else.
std::optional<Scheme> parse_scheme(std::string_view s);
inline bool scheme_uses_vawo(Scheme s) {
  return s == Scheme::VAWO || s == Scheme::VAWOStar ||
         s == Scheme::VAWOStarPWT;
}
inline bool scheme_uses_complement(Scheme s) {
  return s == Scheme::VAWOStar || s == Scheme::VAWOStarPWT;
}
inline bool scheme_uses_pwt(Scheme s) {
  return s == Scheme::PWT || s == Scheme::VAWOStarPWT;
}

struct PwtOptions {
  int epochs = 2;
  /// Base step size in integer-offset units; gradients are RMS-normalized
  /// per layer each batch, so this is roughly "offset units moved per
  /// batch" (the practical choice of the paper's learning rate eta).
  float lr = 1.0f;
  std::int64_t batch_size = 32;
  std::int64_t max_samples = 0;  ///< 0 = full training set per epoch
  /// Warm-start each offset at the measured group-mean deviation
  /// mean_i(NTW_i - CRW_i) before gradient tuning. Pure posteriori
  /// knowledge (the same measurement PWT already requires) and the
  /// closed-form minimizer of the per-group weight MSE; backprop then
  /// refines it loss-aware. Disable for the strict gradient-only variant.
  bool mean_init = true;
};

/// Knobs of the shared compile/execute pipeline that every deployment
/// path consumes — the single source of truth for the LUT protocol, the
/// gradient-estimation budget and the master seed (the device simulator
/// reads them from the plan instead of carrying shadow copies).
struct PipelineConfig {
  /// LUT statistical-testing protocol (K device sets x J cycles per CTW).
  int lut_k_sets = 16;
  int lut_j_cycles = 8;
  /// Samples used to estimate the mean loss gradient for VAWO.
  std::int64_t grad_samples = 256;
  std::int64_t grad_batch = 32;
  std::uint64_t seed = 1;  ///< master seed (LUT build, programming base)
  /// Comma-separated optimizer pass list run over the compiled plan (see
  /// core/opt/pipeline.h; "" = no passes, plans are byte-identical to a
  /// build without the optimizer). Fed by the RDO_OPT_PASSES environment
  /// variable in rdo_experiment and the "opt_passes" serve config key;
  /// covered by plan_fingerprint so on-disk caches key on it.
  std::string opt_passes;
};

struct DeployOptions : PipelineConfig {
  Scheme scheme = Scheme::Plain;
  OffsetConfig offsets;                 ///< m and offset register width
  rdo::rram::CellModel cell;            ///< SLC or MLC2, ON/OFF ratio
  rdo::rram::VariationModel variation;  ///< sigma (and optional DDV split)
  rdo::rram::FaultModel faults;         ///< optional stuck-at-fault rates
  int weight_bits = 8;
  PwtOptions pwt;
  bool quantize_activations = true;
  bool penalize_bias = true;  ///< see VawoOptions
};

/// Per-deployment observability record, accumulated across the
/// compile -> program_cycle -> tune -> evaluate pipeline.
///
/// The struct is split along the determinism boundary of the BENCH_*.json
/// schema (see obs/report.h): wall times are volatile; every counter and
/// trace below them is derived from the seeded computation and is
/// bit-identical for any RDO_THREADS setting — and across execution
/// backends, which is what the parity suite gates.
struct DeployStats {
  // --- volatile wall times (seconds) ---
  double lut_build_s = 0.0;   ///< statistical LUT construction (K x J)
  double prepare_s = 0.0;     ///< quantize + calibrate + gradients + VAWO
  double vawo_solve_s = 0.0;  ///< CTW/offset assignment inside prepare
  double program_s = 0.0;     ///< device programming per cycle
  double tune_s = 0.0;        ///< PWT (warm start + gradient epochs + snap)
  double eval_s = 0.0;        ///< test-set evaluation
  /// Wall time of each evaluate() call (latency samples for the BENCH
  /// `histograms` section). Volatile like the *_s sums above, so it is
  /// excluded from deploy_stats_json().
  std::vector<double> eval_seconds;

  // --- cache-effectiveness counters (environment-dependent) ---
  // Hit/miss/save-failure counts of the opt-in on-disk caches
  // (RDO_LUT_CACHE_DIR, RDO_PLAN_CACHE_DIR). They depend on the on-disk
  // cache state, not on the seeded computation, so they belong to the
  // volatile half: excluded from deploy_stats_json() and from the
  // deterministic BENCH sections. Process-wide cache effectiveness is
  // visible through the deploy_{lut,plan}_cache_* counters of
  // obs::global_metrics().
  std::int64_t lut_cache_hits = 0;
  std::int64_t lut_cache_misses = 0;
  std::int64_t lut_cache_save_failures = 0;
  std::int64_t plan_cache_hits = 0;
  std::int64_t plan_cache_misses = 0;
  std::int64_t plan_cache_save_failures = 0;

  // --- deterministic counters and traces ---
  std::int64_t cycles = 0;              ///< program_cycle() calls
  std::int64_t weights_programmed = 0;  ///< CTWs written across all cycles
  std::int64_t device_pulses = 0;       ///< per-cell programming pulses
  std::int64_t pwt_epochs = 0;
  std::int64_t pwt_batches = 0;
  std::int64_t pwt_offset_updates = 0;  ///< nonzero offset moves applied
  std::vector<float> pwt_epoch_loss;    ///< mean train loss per PWT epoch
  std::vector<float> eval_accuracy;     ///< one entry per evaluate() call

  /// Accumulate `other` into this record: times and counters add,
  /// traces append in call order. Used to fold per-trial stats into a
  /// per-point record deterministically (trials merge in trial order).
  void merge(const DeployStats& other);
};

/// Deterministic portion of a DeployStats as a JSON object (counters
/// and traces only — wall times are intentionally excluded so the
/// result can live in the deterministic `results` section).
[[nodiscard]] rdo::obs::Json deploy_stats_json(const DeployStats& s);

/// Result of running one scheme over several programming cycles.
struct SchemeResult {
  float mean_accuracy = 0.0f;
  std::vector<float> per_cycle;
  /// Wall time of each program/tune/evaluate cycle (latency samples;
  /// volatile, slot order matches per_cycle for any thread count).
  std::vector<double> trial_seconds;
  /// Pipeline stats: the shared compile stage folded together with the
  /// independent trials in trial order.
  DeployStats stats;
  /// One entry per cycle/trial: empty string when the trial succeeded,
  /// the exception message otherwise (run_grid records a failed compile
  /// or trial here instead of aborting the whole grid).
  std::vector<std::string> errors;

  [[nodiscard]] bool failed() const {
    for (const std::string& e : errors) {
      if (!e.empty()) return true;
    }
    return false;
  }
};

/// Fold one result's volatile timings into a BENCH report: the stats'
/// wall times into the "deploy:*" phase slots (aggregating across
/// calls), trial_seconds into the bench_trial_seconds histogram and
/// stats.eval_seconds into deploy_evaluate_seconds. Call it from one
/// thread: it writes phase slots (see BenchReport::phase).
void add_scheme_timings(rdo::obs::BenchReport& rep, const SchemeResult& res);

/// Monte-Carlo harness over a grid of deployment points: each point is
/// compiled once into a DeploymentPlan shared read-only by its trials,
/// then every (point, trial) pair runs one program/tune/evaluate cycle
/// as an independent EffectiveWeightBackend over its own private clone
/// of `net`, spread over the nn/parallel.h pool (RDO_THREADS). `net` is
/// never modified. Trial t of every point draws its devices from
/// Rng(seed).split(t)-derived streams, so every per-cycle accuracy is
/// bit-identical for any thread count, and to one backend running the
/// cycles in order (asserted in tests/test_parallel.cpp).
///
/// A point's compile or a trial that throws does not abort the grid: the
/// trial's accuracy stays 0 (and still counts in mean_accuracy), and the
/// exception message lands in results[point].errors[trial]. Stats merge
/// in (compile, trial...) order.
std::vector<SchemeResult> run_grid(const rdo::nn::Layer& net,
                                   const std::vector<DeployOptions>& points,
                                   const rdo::nn::DataView& train,
                                   const rdo::nn::DataView& test,
                                   int repeats);

/// run_grid over the single point `opt`.
SchemeResult run_scheme(const rdo::nn::Layer& net, const DeployOptions& opt,
                        const rdo::nn::DataView& train,
                        const rdo::nn::DataView& test, int repeats);

}  // namespace rdo::core
