#include "core/deploy.h"

#include <algorithm>
#include <cctype>

#include "core/backend.h"
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
  lut_cache_hits += other.lut_cache_hits;
  lut_cache_misses += other.lut_cache_misses;
  lut_cache_save_failures += other.lut_cache_save_failures;
  plan_cache_hits += other.plan_cache_hits;
  plan_cache_misses += other.plan_cache_misses;
  plan_cache_save_failures += other.plan_cache_save_failures;
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

SchemeResult run_scheme(const rdo::nn::Layer& net, const DeployOptions& opt,
                        const rdo::nn::DataView& train,
                        const rdo::nn::DataView& test, int repeats,
                        std::int64_t eval_batch) {
  // Compile once; the plan is read-only afterwards and shared by every
  // trial's backend.
  const DeploymentPlan plan = compile_plan(net, opt, train);
  const auto n = static_cast<std::size_t>(std::max(0, repeats));
  SchemeResult res;
  res.per_cycle.assign(n, 0.0f);
  res.trial_seconds.assign(n, 0.0);
  res.errors.assign(n, "");
  std::vector<DeployStats> trial_stats(n);
  rdo::nn::parallel_for(repeats, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t trial = t0; trial < t1; ++trial) {
      rdo::obs::Stopwatch watch;
      EffectiveWeightBackend backend(plan, net);
      backend.program_cycle(static_cast<std::uint64_t>(trial));
      backend.tune(train);
      res.per_cycle[static_cast<std::size_t>(trial)] =
          backend.evaluate(test, eval_batch);
      trial_stats[static_cast<std::size_t>(trial)] = backend.stats();
      res.trial_seconds[static_cast<std::size_t>(trial)] = watch.seconds();
    }
  });
  // Merge and sum in trial order so the aggregated traces and the mean
  // are identical for any thread count.
  res.stats = plan.compile_stats;
  for (const DeployStats& s : trial_stats) res.stats.merge(s);
  double total = 0.0;
  for (float a : res.per_cycle) total += a;
  res.mean_accuracy = static_cast<float>(total / std::max(1, repeats));
  return res;
}

}  // namespace rdo::core
