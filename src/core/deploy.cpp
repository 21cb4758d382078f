#include "core/deploy.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <type_traits>

#include "core/backend.h"
#include "core/check.h"
#include "core/plan.h"
#include "nn/parallel.h"
#include "obs/report.h"
#include "obs/stopwatch.h"

namespace rdo::core {

void DeployStats::merge(const DeployStats& other) {
  lut_build_s += other.lut_build_s;
  prepare_s += other.prepare_s;
  vawo_solve_s += other.vawo_solve_s;
  program_s += other.program_s;
  tune_s += other.tune_s;
  eval_s += other.eval_s;
  eval_seconds.insert(eval_seconds.end(), other.eval_seconds.begin(),
                      other.eval_seconds.end());
  plan_cache_hits += other.plan_cache_hits;
  cycles += other.cycles;
  weights_programmed += other.weights_programmed;
  device_pulses += other.device_pulses;
  pwt_epochs += other.pwt_epochs;
  pwt_batches += other.pwt_batches;
  pwt_offset_updates += other.pwt_offset_updates;
  pwt_epoch_loss.insert(pwt_epoch_loss.end(), other.pwt_epoch_loss.begin(),
                        other.pwt_epoch_loss.end());
  eval_accuracy.insert(eval_accuracy.end(), other.eval_accuracy.begin(),
                       other.eval_accuracy.end());
}

rdo::obs::Json deploy_stats_json(const DeployStats& s) {
  rdo::obs::Json j = rdo::obs::Json::object();
  j["cycles"] = s.cycles;
  j["weights_programmed"] = s.weights_programmed;
  j["device_pulses"] = s.device_pulses;
  j["pwt_epochs"] = s.pwt_epochs;
  j["pwt_batches"] = s.pwt_batches;
  j["pwt_offset_updates"] = s.pwt_offset_updates;
  rdo::obs::Json losses = rdo::obs::Json::array();
  for (float l : s.pwt_epoch_loss) losses.push_back(static_cast<double>(l));
  j["pwt_epoch_loss"] = std::move(losses);
  rdo::obs::Json accs = rdo::obs::Json::array();
  for (float a : s.eval_accuracy) accs.push_back(static_cast<double>(a));
  j["eval_accuracy"] = std::move(accs);
  return j;
}

void add_scheme_timings(rdo::obs::BenchReport& rep, const SchemeResult& res) {
  const DeployStats& s = res.stats;
  *rep.phase("deploy:lut_build") += s.lut_build_s;
  *rep.phase("deploy:prepare") += s.prepare_s;
  *rep.phase("deploy:vawo_solve") += s.vawo_solve_s;
  *rep.phase("deploy:program") += s.program_s;
  *rep.phase("deploy:tune") += s.tune_s;
  *rep.phase("deploy:evaluate") += s.eval_s;
  rdo::obs::MetricsRegistry& m = rep.metrics();
  for (double t : res.trial_seconds) {
    m.histogram("bench_trial_seconds").observe(t);
  }
  for (double t : s.eval_seconds) {
    m.histogram("deploy_evaluate_seconds").observe(t);
  }
}

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::Plain: return "plain";
    case Scheme::VAWO: return "VAWO";
    case Scheme::VAWOStar: return "VAWO*";
    case Scheme::PWT: return "PWT";
    case Scheme::VAWOStarPWT: return "VAWO*+PWT";
  }
  return "?";
}

std::optional<Scheme> parse_scheme(std::string_view s) {
  std::string low(s);
  std::transform(low.begin(), low.end(), low.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (low == "plain") return Scheme::Plain;
  if (low == "vawo") return Scheme::VAWO;
  if (low == "vawo*") return Scheme::VAWOStar;
  if (low == "pwt") return Scheme::PWT;
  if (low == "vawo*+pwt") return Scheme::VAWOStarPWT;
  return std::nullopt;
}

namespace {

template <typename T>
std::string show(T v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof(buf), v).ptr};
}

[[noreturn]] void reject(const char* field, const std::string& what) {
  throw ContractViolation(std::string("DeployOptions: ") + field + " = " +
                          what);
}

/// lo <= v <= hi, written so that NaN fails.
template <typename T>
void in_range(const char* field, T v, std::type_identity_t<T> lo,
              std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  if (!(v >= lo && v <= hi)) {
    reject(field, show(v) + " outside [" + show(lo) + ", " + show(hi) + "]");
  }
}

}  // namespace

void check_options(const DeployOptions& o) {
  in_range("offsets.m", o.offsets.m, 1, kMaxOffsetGroupSize);
  in_range("offsets.offset_bits", o.offsets.offset_bits, 1, kMaxOffsetBits);
  in_range("cell.on_off_ratio", o.cell.on_off_ratio, std::nextafter(1.0, 2.0),
           1e9);
  in_range("variation.sigma", o.variation.sigma, 0.0, kMaxSigma);
  in_range("variation.ddv_fraction", o.variation.ddv_fraction, 0.0, 1.0);
  in_range("faults.stuck_hrs_rate", o.faults.stuck_hrs_rate, 0.0, 1.0);
  in_range("faults.stuck_lrs_rate", o.faults.stuck_lrs_rate, 0.0, 1.0);
  in_range("weight_bits", o.weight_bits, 1, 16);
  if (o.weight_bits % o.cell.bits() != 0) {
    reject("weight_bits", show(o.weight_bits) + " not a whole number of cells");
  }
  in_range("lut_k_sets", o.lut_k_sets, 1);
  in_range("lut_j_cycles", o.lut_j_cycles, 1);
  in_range("lut_k_sets * lut_j_cycles",
           std::int64_t{o.lut_k_sets} * o.lut_j_cycles, 1,
           rdo::rram::RLut::kMaxSamples);
  in_range("grad_samples", o.grad_samples, 0);
  in_range("pwt.epochs", o.pwt.epochs, 0, 1024);
  in_range("pwt.max_samples", o.pwt.max_samples, 0);
}

std::vector<SchemeResult> run_grid(const rdo::nn::Layer& net,
                                   const std::vector<DeployOptions>& points,
                                   const rdo::nn::DataView& train,
                                   const rdo::nn::DataView& test,
                                   int repeats) {
  constexpr std::int64_t kEvalBatch = 64;
  const auto npoints = static_cast<std::int64_t>(points.size());
  const std::int64_t trials = std::max(0, repeats);
  const auto n = static_cast<std::size_t>(trials);
  std::vector<SchemeResult> results(points.size());
  for (SchemeResult& r : results) {
    r.per_cycle.assign(n, 0.0f);
    r.trial_seconds.assign(n, 0.0);
    r.errors.assign(n, "");
  }
  // Compile every point once; all of the point's trials share the plan,
  // read-only. A throwing compile is recorded into each of that point's
  // trial slots, so one bad point does not discard the rest of the grid.
  // With one point the loop runs inline on the calling thread, so
  // compile_plan's own pool loops stay parallel.
  std::vector<std::unique_ptr<DeploymentPlan>> plans(points.size());
  std::vector<std::string> compile_errors(points.size());
  rdo::nn::parallel_for(npoints, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const auto pi = static_cast<std::size_t>(p);
      try {
        plans[pi] = std::make_unique<DeploymentPlan>(
            compile_plan(net, points[pi], train));
      } catch (const std::exception& e) {
        compile_errors[pi] = e.what();
      } catch (...) {
        compile_errors[pi] = "unknown exception";
      }
    }
  });
  // One task per (point, trial), so a grid keeps every core busy even
  // when repeats < cores. Each task runs an EffectiveWeightBackend over a
  // private clone of `net`; a throwing trial is recorded, not propagated.
  std::vector<DeployStats> trial_stats(static_cast<std::size_t>(npoints) * n);
  rdo::nn::parallel_for(npoints * trials, [&](std::int64_t t0,
                                              std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const auto pi = static_cast<std::size_t>(t / trials);
      const auto ti = static_cast<std::size_t>(t % trials);
      SchemeResult& r = results[pi];
      if (plans[pi] == nullptr) {
        r.errors[ti] = compile_errors[pi];
        continue;
      }
      rdo::obs::Stopwatch watch;
      try {
        EffectiveWeightBackend backend(*plans[pi], net);
        backend.program_cycle(static_cast<std::uint64_t>(ti));
        backend.tune(train);
        r.per_cycle[ti] = backend.evaluate(test, kEvalBatch);
        trial_stats[static_cast<std::size_t>(t)] = backend.stats();
      } catch (const std::exception& e) {
        r.errors[ti] = e.what();
      } catch (...) {
        r.errors[ti] = "unknown exception";
      }
      r.trial_seconds[ti] = watch.seconds();
    }
  });
  // Merge stats in (compile, trial...) order and sum in trial order, so
  // the aggregated traces and the mean are identical for any thread
  // count.
  for (std::size_t pi = 0; pi < results.size(); ++pi) {
    SchemeResult& r = results[pi];
    if (plans[pi] != nullptr) r.stats = plans[pi]->compile_stats;
    for (std::size_t ti = 0; ti < n; ++ti) {
      r.stats.merge(trial_stats[pi * n + ti]);
    }
    double total = 0.0;
    for (float a : r.per_cycle) total += a;
    r.mean_accuracy = static_cast<float>(total / std::max(1, repeats));
  }
  return results;
}

SchemeResult run_scheme(const rdo::nn::Layer& net, const DeployOptions& opt,
                        const rdo::nn::DataView& train,
                        const rdo::nn::DataView& test, int repeats) {
  return std::move(run_grid(net, {opt}, train, test, repeats).front());
}

}  // namespace rdo::core
