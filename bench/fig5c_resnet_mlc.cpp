// Fig. 5(c): ResNet with VAWO*+PWT on 2-bit MLC crossbars across the
// variation sweep sigma in [0.2, 1.0].
//
// Paper reference (ResNet-18 + CIFAR-10, 2-bit MLC, VAWO*+PWT):
//   m = 16 stays > 90% up to sigma = 0.7; m = 128 stays ~ 80% even at
//   sigma = 1.0; accuracy decreases with sigma, finer m degrades slower.
#include <cstdio>
#include <vector>

#include "common.h"
#include "nn/parallel.h"

using namespace rdo;
using namespace rdo::bench;

int main() {
  obs::BenchReport rep("fig5c_resnet_mlc", 2021);

  const data::SyntheticDataset ds = bench_cifar();
  float ideal = 0.0f;
  std::unique_ptr<nn::Sequential> net;
  {
    obs::TraceSpan t("train_models", "phase", rep.phase("train_models"));
    net = cached_resnet(ds, &ideal);
  }
  rep.results()["ideal_accuracy"] = static_cast<double>(ideal);

  std::printf(
      "=== Fig 5(c): ResNet (scaled) + CIFAR-like, 2-bit MLC, VAWO*+PWT "
      "===\n");
  std::printf("ideal (float) accuracy: %.2f%%   [paper: 94.14%%]\n",
              100 * ideal);
  const double sigmas[] = {0.2, 0.4, 0.6, 0.8, 1.0};
  std::vector<core::DeployOptions> jobs;
  for (double sigma : sigmas) {
    for (int m : {16, 128}) {
      auto o = bench_options(core::Scheme::VAWOStarPWT, m,
                             rram::CellKind::MLC2, sigma);
      o.pwt.max_samples = 300;
      jobs.push_back(o);
    }
  }
  double* const sweep_s = rep.phase("deployment_sweep");
  std::vector<core::SchemeResult> grid;
  {
    obs::TraceSpan t("deployment_sweep", "phase", sweep_s);
    grid = core::run_grid(*net, jobs, ds.train(), ds.test(), 2);
  }

  std::printf("\n%-8s  m=16    m=128\n", "sigma");
  std::size_t j = 0;
  for (double sigma : sigmas) {
    std::printf("%-8.1f", sigma);
    for (int rep_m = 0; rep_m < 2; ++rep_m) {
      std::printf("  %5.1f%%", 100 * grid[j].mean_accuracy);
      char label[64];
      std::snprintf(label, sizeof(label), "sigma%.2f/m%d", sigma,
                    jobs[j].offsets.m);
      record_scheme_result(rep, label, jobs[j], grid[j]);
      ++j;
    }
    std::printf("\n");
  }
  std::fprintf(stderr, "[bench] deployment sweep: %.1f s (RDO_THREADS=%d)\n",
               *sweep_s, nn::thread_count());
  std::printf(
      "\nexpected shape: monotone decrease in sigma; m = 16 degrades\n"
      "slower than m = 128 (finer offset sharing).\n");
  return finish_report(rep);
}
