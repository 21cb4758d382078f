#include "common.h"

#include <cstdio>
#include <filesystem>

#include "baselines/dva.h"
#include "core/backend.h"
#include "core/plan.h"
#include "models/lenet.h"
#include "models/resnet.h"
#include "models/vgg.h"
#include "nn/optimizer.h"
#include "nn/parallel.h"
#include "nn/serialize.h"
#include "nn/trainer.h"

namespace rdo::bench {

namespace {

constexpr const char* kCacheDir = "bench_cache";

std::string cache_path(const std::string& tag) {
  std::filesystem::create_directories(kCacheDir);
  return std::string(kCacheDir) + "/" + tag + ".bin";
}

/// Train-or-load helper: `make` builds the (deterministically initialized)
/// network, `train` fits it when there is no cache entry.
template <typename MakeFn, typename TrainFn>
std::unique_ptr<rdo::nn::Sequential> train_or_load(
    const std::string& tag, const data::SyntheticDataset& ds, float* ideal,
    MakeFn make, TrainFn train) {
  auto net = make();
  const std::string path = cache_path(tag);
  bool loaded = false;
  try {
    loaded = rdo::nn::load_params(*net, path);
  } catch (const std::exception&) {
    loaded = false;  // stale cache from an older layout: retrain
  }
  if (loaded &&
      rdo::nn::evaluate(*net, ds.test(), 64).accuracy < 0.6f) {
    // Guard against a stale/poisoned cache (e.g. written by an older
    // hyper-parameter set): a bench model must be well trained.
    std::fprintf(stderr, "[bench] cache for %s is low-accuracy; retraining\n",
                 tag.c_str());
    loaded = false;
    auto fresh = make();
    net.swap(fresh);
  }
  if (!loaded) {
    std::fprintf(stderr, "[bench] training %s (no cache)...\n", tag.c_str());
    train(*net);
    rdo::nn::save_params(*net, path);
    std::fprintf(stderr, "[bench] %s test accuracy %.3f\n", tag.c_str(),
                 rdo::nn::evaluate(*net, ds.test(), 64).accuracy);
  }
  if (ideal != nullptr) {
    *ideal = rdo::nn::evaluate(*net, ds.test(), 64).accuracy;
  }
  return net;
}

}  // namespace

data::SyntheticDataset bench_mnist() {
  data::SyntheticSpec spec = data::mnist_like();
  spec.train_per_class = 100;
  spec.test_per_class = 30;
  spec.noise = 0.25;
  return data::make_synthetic(spec);
}

data::SyntheticDataset bench_cifar() {
  data::SyntheticSpec spec = data::cifar_like();
  spec.train_per_class = 70;
  spec.test_per_class = 25;
  spec.noise = 0.25;
  return data::make_synthetic(spec);
}

std::unique_ptr<rdo::nn::Sequential> blank_lenet() {
  rdo::nn::Rng rng(31);
  return models::make_lenet({}, rng);
}

std::unique_ptr<rdo::nn::Sequential> blank_resnet() {
  rdo::nn::Rng rng(41);
  models::ResNetConfig cfg;
  cfg.base_channels = 8;
  cfg.blocks_per_stage = 1;
  return models::make_resnet(cfg, rng);
}

std::unique_ptr<rdo::nn::Sequential> blank_vgg() {
  rdo::nn::Rng rng(51);
  models::VggConfig cfg;
  cfg.base_channels = 8;
  return models::make_vgg(cfg, rng);
}

std::unique_ptr<rdo::nn::Sequential> cached_lenet(
    const data::SyntheticDataset& ds, float* ideal) {
  return train_or_load(
      "lenet", ds, ideal, [] { return blank_lenet(); },
      [&](rdo::nn::Sequential& net) {
        rdo::nn::Rng rng(32);
        rdo::nn::SGD opt(net.params(), 0.02f, 0.9f, 1e-4f);
        for (int e = 0; e < 12; ++e) {
          rdo::nn::train_epoch(net, opt, ds.train(), 32, rng);
        }
      });
}

std::unique_ptr<rdo::nn::Sequential> cached_resnet(
    const data::SyntheticDataset& ds, float* ideal) {
  return train_or_load(
      "resnet", ds, ideal, [] { return blank_resnet(); },
      [&](rdo::nn::Sequential& net) {
        rdo::nn::Rng rng(42);
        rdo::nn::SGD opt(net.params(), 0.02f, 0.9f, 1e-4f);
        for (int e = 0; e < 15; ++e) {
          if (e == 10) opt.set_lr(0.005f);
          rdo::nn::train_epoch(net, opt, ds.train(), 32, rng);
        }
      });
}

std::unique_ptr<rdo::nn::Sequential> cached_vgg(
    const data::SyntheticDataset& ds, float* ideal) {
  return train_or_load(
      "vgg", ds, ideal, [] { return blank_vgg(); },
      [&](rdo::nn::Sequential& net) {
        rdo::nn::Rng rng(52);
        rdo::nn::SGD opt(net.params(), 0.02f, 0.9f, 1e-4f);
        for (int e = 0; e < 15; ++e) {
          if (e == 10) opt.set_lr(0.005f);
          rdo::nn::train_epoch(net, opt, ds.train(), 32, rng);
        }
      });
}

std::unique_ptr<rdo::nn::Sequential> cached_dva_vgg(
    const data::SyntheticDataset& ds, float* ideal) {
  return train_or_load(
      "vgg_dva", ds, ideal, [] { return blank_vgg(); },  // same init as vgg
      [&](rdo::nn::Sequential& net) {
        // Same pretraining as cached_vgg, then DVA fine-tuning.
        rdo::nn::Rng rng(52);
        rdo::nn::SGD opt(net.params(), 0.02f, 0.9f, 1e-4f);
        for (int e = 0; e < 15; ++e) {
          if (e == 10) opt.set_lr(0.005f);
          rdo::nn::train_epoch(net, opt, ds.train(), 32, rng);
        }
        baselines::DvaOptions dopt;
        dopt.epochs = 5;
        dopt.lr = 0.002f;
        // Calibrated training-noise level (see EXPERIMENTS.md): sigma*
        // keeps the scaled substrate in the paper's operating regime.
        dopt.variation.sigma = kSigmaStar;
        baselines::dva_train(net, ds.train(), dopt);
      });
}

rdo::core::DeployOptions bench_options(rdo::core::Scheme scheme, int m,
                                       rdo::rram::CellKind cell,
                                       double sigma) {
  rdo::core::DeployOptions o;
  o.scheme = scheme;
  o.offsets.m = m;
  o.cell = {cell, 200.0};
  o.variation.sigma = sigma;
  o.lut_k_sets = 16;
  o.lut_j_cycles = 8;
  o.grad_samples = 256;
  o.pwt.epochs = 2;
  o.pwt.max_samples = 400;
  o.seed = 2021;  // DATE 2021
  return o;
}

std::vector<rdo::core::SchemeResult> run_grid(
    const rdo::nn::Layer& master,
    const std::vector<rdo::core::DeployOptions>& points,
    const rdo::nn::DataView& train, const rdo::nn::DataView& test,
    int repeats) {
  const std::int64_t npoints = static_cast<std::int64_t>(points.size());
  std::vector<rdo::core::SchemeResult> results(points.size());
  for (auto& r : results) {
    r.per_cycle.assign(static_cast<std::size_t>(repeats), 0.0f);
    r.trial_seconds.assign(static_cast<std::size_t>(repeats), 0.0);
    r.errors.assign(static_cast<std::size_t>(repeats), "");
  }
  // Compile every grid point once; all of the point's trials share the
  // plan. A throwing compile is recorded into each of that point's trial
  // slots — one bad grid point must not discard the rest of the sweep.
  std::vector<std::unique_ptr<rdo::core::DeploymentPlan>> plans(
      points.size());
  std::vector<std::string> compile_errors(points.size());
  rdo::nn::parallel_for(npoints, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const auto pi = static_cast<std::size_t>(p);
      try {
        plans[pi] = std::make_unique<rdo::core::DeploymentPlan>(
            rdo::core::compile_plan(master, points[pi], train));
      } catch (const std::exception& e) {
        compile_errors[pi] = e.what();
      } catch (...) {
        compile_errors[pi] = "unknown exception";
      }
    }
  });
  std::vector<rdo::core::DeployStats> trial_stats(
      static_cast<std::size_t>(npoints * repeats));
  // One task per (point, trial): finer than per-point tasks, so a grid
  // keeps every core busy even when repeats < cores. Each task runs an
  // EffectiveWeightBackend over a private clone of the trained network;
  // `master` is only read. A throwing trial is recorded, not propagated.
  rdo::nn::parallel_for(npoints * repeats, [&](std::int64_t t0,
                                               std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t point = t / repeats;
      const std::int64_t trial = t % repeats;
      const auto pi = static_cast<std::size_t>(point);
      const auto ti = static_cast<std::size_t>(trial);
      if (plans[pi] == nullptr) {
        results[pi].errors[ti] = compile_errors[pi];
        continue;
      }
      rdo::obs::Stopwatch watch;
      try {
        rdo::core::EffectiveWeightBackend backend(*plans[pi], master);
        backend.program_cycle(static_cast<std::uint64_t>(trial));
        backend.tune(train);
        results[pi].per_cycle[ti] = backend.evaluate(test);
        trial_stats[static_cast<std::size_t>(t)] = backend.stats();
      } catch (const std::exception& e) {
        results[pi].errors[ti] = e.what();
      } catch (...) {
        results[pi].errors[ti] = "unknown exception";
      }
      results[pi].trial_seconds[ti] = watch.seconds();
    }
  });
  // Merge stats in (compile, trial...) order outside the parallel region
  // so aggregated counters and traces are thread-count independent.
  for (std::int64_t p = 0; p < npoints; ++p) {
    auto& r = results[static_cast<std::size_t>(p)];
    if (plans[static_cast<std::size_t>(p)] != nullptr) {
      r.stats = plans[static_cast<std::size_t>(p)]->compile_stats;
    }
    for (std::int64_t trial = 0; trial < repeats; ++trial) {
      r.stats.merge(trial_stats[static_cast<std::size_t>(p * repeats + trial)]);
    }
    double total = 0.0;
    for (float a : r.per_cycle) total += a;
    r.mean_accuracy = static_cast<float>(total / std::max(1, repeats));
  }
  return results;
}

void record_scheme_result(rdo::obs::BenchReport& rep,
                          const std::string& label,
                          const rdo::core::DeployOptions& opt,
                          const rdo::core::SchemeResult& res) {
  rdo::obs::Json point = rdo::obs::Json::object();
  point["label"] = label;
  point["scheme"] = rdo::core::to_string(opt.scheme);
  point["m"] = opt.offsets.m;
  point["cell"] = rdo::rram::to_string(opt.cell.kind);
  point["sigma"] = opt.variation.sigma;
  point["mean_accuracy"] = static_cast<double>(res.mean_accuracy);
  rdo::obs::Json per_cycle = rdo::obs::Json::array();
  for (float a : res.per_cycle) per_cycle.push_back(static_cast<double>(a));
  point["per_cycle"] = std::move(per_cycle);
  point["stats"] = rdo::core::deploy_stats_json(res.stats);
  rdo::obs::Json errors = rdo::obs::Json::array();
  for (const std::string& e : res.errors) errors.push_back(e);
  point["errors"] = std::move(errors);
  rep.results()["grid"].push_back(std::move(point));

  rdo::core::add_scheme_timings(rep, res);
  rdo::obs::MetricsRegistry& m = rep.metrics();
  m.counter("bench_grid_points").add();
  m.counter("bench_trials").add(static_cast<std::int64_t>(res.errors.size()));
  m.counter("bench_cycles").add(res.stats.cycles);
  m.counter("bench_weights_programmed").add(res.stats.weights_programmed);
  m.counter("bench_device_pulses").add(res.stats.device_pulses);
  m.counter("pwt_epochs").add(res.stats.pwt_epochs);
  m.counter("pwt_batches").add(res.stats.pwt_batches);
  m.counter("pwt_offset_updates").add(res.stats.pwt_offset_updates);

  for (std::size_t trial = 0; trial < res.errors.size(); ++trial) {
    if (!res.errors[trial].empty()) {
      rep.add_failure(label + " trial " + std::to_string(trial),
                      res.errors[trial]);
    }
  }
}

void record_measurement(rdo::obs::BenchReport& rep, const std::string& label,
                        double value) {
  rdo::obs::Json m = rdo::obs::Json::object();
  m["label"] = label;
  m["value"] = value;
  rep.results()["measurements"].push_back(std::move(m));
}

int finish_report(rdo::obs::BenchReport& rep) {
  try {
    const std::string path = rep.write();
    std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[bench] cannot write structured results: %s\n",
                 e.what());
    return 1;
  }
  return rep.exit_code();
}

}  // namespace rdo::bench
