// Fig. 5(b): ResNet accuracy on SLC crossbars under every scheme and
// sharing granularity.
//
// Paper reference (ResNet-18 + CIFAR-10, SLC, sigma = 0.5, ideal 94.14%):
//   plain collapses; VAWO* alone NOT sufficient; PWT alone ineffective;
//   VAWO*+PWT recovers to 91.37% at m = 16 (2.77% drop).
#include <cstdio>
#include <vector>

#include "common.h"
#include "nn/parallel.h"

using namespace rdo;
using namespace rdo::bench;
using core::Scheme;

int main() {
  obs::BenchReport rep("fig5b_resnet_slc", 2021);

  const data::SyntheticDataset ds = bench_cifar();
  float ideal = 0.0f;
  std::unique_ptr<nn::Sequential> net;
  {
    obs::TraceSpan t("train_models", "phase", rep.phase("train_models"));
    net = cached_resnet(ds, &ideal);
  }
  rep.results()["ideal_accuracy"] = static_cast<double>(ideal);

  std::printf("=== Fig 5(b): ResNet (scaled) + CIFAR-like, SLC cells ===\n");
  std::printf("ideal (float) accuracy: %.2f%%   [paper: 94.14%%]\n", 100 * ideal);

  const int ms[] = {16, 64, 128};
  const Scheme schemes[] = {Scheme::Plain, Scheme::VAWO, Scheme::VAWOStar,
                            Scheme::PWT, Scheme::VAWOStarPWT};
  const double sigmas[] = {kSigmaStar, 0.5};

  std::vector<core::DeployOptions> jobs;
  for (double sigma : sigmas) {
    for (Scheme s : schemes) {
      for (int m : ms) {
        jobs.push_back(bench_options(s, m, rram::CellKind::SLC, sigma));
      }
    }
  }
  double* const sweep_s = rep.phase("deployment_sweep");
  std::vector<core::SchemeResult> grid;
  {
    obs::TraceSpan t("deployment_sweep", "phase", sweep_s);
    grid = core::run_grid(*net, jobs, ds.train(), ds.test(), kRepeats);
  }

  std::size_t j = 0;
  for (double sigma : sigmas) {
    std::printf("\n-- sigma = %.2f%s --\n", sigma,
                sigma == kSigmaStar ? " (calibrated sigma*)" : " (nominal)");
    std::printf("%-12s", "scheme");
    for (int m : ms) std::printf("  m=%-3d ", m);
    std::printf("\n");
    for (Scheme s : schemes) {
      std::printf("%-12s", core::to_string(s));
      for ([[maybe_unused]] int m : ms) {
        std::printf("  %5.1f%%", 100 * grid[j].mean_accuracy);
        char label[64];
        std::snprintf(label, sizeof(label), "sigma%.2f/%s/m%d", sigma,
                      core::to_string(s), jobs[j].offsets.m);
        record_scheme_result(rep, label, jobs[j], grid[j]);
        ++j;
      }
      std::printf("\n");
    }
  }
  std::fprintf(stderr, "[bench] deployment sweep: %.1f s (RDO_THREADS=%d)\n",
               *sweep_s, nn::thread_count());
  std::printf(
      "\nexpected shape: deeper net => VAWO*/PWT alone leave a larger gap\n"
      "than on LeNet; the combination VAWO*+PWT recovers most of it.\n");
  return finish_report(rep);
}
