// Shared infrastructure for the experiment harnesses.
//
// Each bench binary regenerates one table or figure of the paper. Models
// are trained once and cached on disk (bench_cache/) so the binaries can
// run independently and in any order.
//
// Calibration note (see EXPERIMENTS.md): the substrate here is a scaled-
// down network on a synthetic dataset, whose noise-tolerance constant
// differs from full-size nets on MNIST/CIFAR. The paper's sigma = 0.5
// operating regime (plain collapses to chance, VAWO* recovers most, full
// method ~ ideal) is reached on this substrate at sigma* ~ 0.3; harnesses
// therefore report both the calibrated sigma* and the paper's nominal
// sigma rows.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/deploy.h"
#include "data/synthetic.h"
#include "nn/sequential.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace rdo::bench {

/// Bench-scale datasets (deterministic, regenerated per run).
data::SyntheticDataset bench_mnist();
data::SyntheticDataset bench_cifar();

/// Train-or-load models. `tag` names the cache entry under bench_cache/.
/// On a cache hit the stored weights are loaded; otherwise the model is
/// trained and saved. Returns the float ("ideal") test accuracy through
/// `ideal` when non-null.
std::unique_ptr<rdo::nn::Sequential> cached_lenet(
    const data::SyntheticDataset& ds, float* ideal);
std::unique_ptr<rdo::nn::Sequential> cached_resnet(
    const data::SyntheticDataset& ds, float* ideal);
std::unique_ptr<rdo::nn::Sequential> cached_vgg(
    const data::SyntheticDataset& ds, float* ideal);
/// VGG fine-tuned with DVA (variation-injected training, sigma 0.5).
std::unique_ptr<rdo::nn::Sequential> cached_dva_vgg(
    const data::SyntheticDataset& ds, float* ideal);

/// Standard deployment options used across the harnesses.
rdo::core::DeployOptions bench_options(rdo::core::Scheme scheme, int m,
                                       rdo::rram::CellKind cell,
                                       double sigma);

/// Untrained networks with the exact architectures the cached_* models
/// use (deterministic initialization; the train-or-load cache builds on
/// these).
std::unique_ptr<rdo::nn::Sequential> blank_lenet();
std::unique_ptr<rdo::nn::Sequential> blank_resnet();
std::unique_ptr<rdo::nn::Sequential> blank_vgg();

/// Append one grid-point result to rep.results()["grid"] (config,
/// per-cycle accuracies, deterministic pipeline counters, per-trial
/// errors), fold its timings in with core::add_scheme_timings, add the
/// bench_* and pwt_* counters, and register any failed trials so the
/// harness exits nonzero. Call in grid order — the JSON is positional.
void record_scheme_result(rdo::obs::BenchReport& rep,
                          const std::string& label,
                          const rdo::core::DeployOptions& opt,
                          const rdo::core::SchemeResult& res);

/// Record a single named accuracy measurement (Table-style harnesses)
/// under rep.results()["measurements"].
void record_measurement(rdo::obs::BenchReport& rep, const std::string& label,
                        double value);

/// Write BENCH_<name>.json next to the stdout report and convert any
/// recorded failures into the process exit code.
int finish_report(rdo::obs::BenchReport& rep);

/// Number of programming cycles averaged per data point (paper used 5).
inline constexpr int kRepeats = 3;

/// The calibrated sigma* corresponding to the paper's sigma = 0.5 regime.
inline constexpr double kSigmaStar = 0.3;

}  // namespace rdo::bench
