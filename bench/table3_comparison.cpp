// Table III: comparison with state-of-the-art fault-tolerant methods on
// VGG (paper: VGG-16 + CIFAR-10, sigma = 0.8).
//
// Paper reference (accuracy loss / normalized crossbar count):
//   DVA [9]      13%    / 2     (8 SLCs per weight, one-crossbar)
//   PM [12]      12.02% / 2.5   (10 2-bit MLCs per weight, two-crossbar)
//   DVA+PM [12]  5.48%  / 2.5
//   this work    4.94%  / 1     (4 2-bit MLCs per weight, one-crossbar)
// Shape: ours <= DVA+PM < PM ~ DVA in loss, with the fewest crossbars.
#include <cstdio>
#include <string>

#include "baselines/pm.h"
#include "baselines/write_verify.h"
#include "common.h"

using namespace rdo;
using namespace rdo::bench;

int main() {
  obs::BenchReport rep("table3_comparison", 2021);

  const data::SyntheticDataset ds = bench_cifar();
  float ideal = 0.0f;
  float dva_ideal = 0.0f;
  std::unique_ptr<nn::Sequential> vgg, vgg_dva;
  {
    obs::TraceSpan t("train_models", "phase", rep.phase("train_models"));
    vgg = cached_vgg(ds, &ideal);
    vgg_dva = cached_dva_vgg(ds, &dva_ideal);
  }
  rep.results()["ideal_accuracy"] = static_cast<double>(ideal);
  rep.results()["dva_ideal_accuracy"] = static_cast<double>(dva_ideal);

  std::printf("=== Table III: method comparison on VGG (scaled) ===\n");
  std::printf("ideal accuracy: %.2f%% (plain training), %.2f%% (DVA "
              "training)\n",
              100 * ideal, 100 * dva_ideal);

  // Every method cell runs under guard(): an exception is recorded as a
  // failure for that row (the table keeps going, the exit code goes
  // nonzero) instead of tearing down the whole comparison.
  for (double sigma : {0.5, 0.8}) {
    std::printf("\n-- sigma = %.2f%s --\n", sigma,
                sigma == 0.8 ? " (paper's operating point)"
                             : " (calibrated regime)");
    std::printf("%-12s %-12s %-12s %-10s\n", "method", "accuracy",
                "acc. loss", "crossbars");
    char sig[16];
    std::snprintf(sig, sizeof(sig), "sigma%.2f/", sigma);

    const auto guard = [&](const char* method, auto&& body) {
      try {
        obs::TraceSpan t("method_comparison", "phase",
                         rep.phase("method_comparison"));
        body();
      } catch (const std::exception& e) {
        rep.add_failure(sig + std::string(method), e.what());
        std::printf("%-12s %10s\n", method, "FAILED");
      }
    };

    // DVA: variation-trained network, plain one-crossbar deployment on
    // 8 SLCs per weight. (The original [9] reports on AlexNet at
    // sigma 0.5; we use the same VGG as everyone else for a like-for-like
    // comparison, as the paper does.)
    guard("DVA", [&] {
      auto o = bench_options(core::Scheme::Plain, 16, rram::CellKind::SLC,
                             sigma);
      const auto res =
          core::run_scheme(*vgg_dva, o, ds.train(), ds.test(), kRepeats);
      std::printf("%-12s %10.2f%% %10.2f%% %10.1f\n", "DVA",
                  100 * res.mean_accuracy,
                  100 * (ideal - res.mean_accuracy), 2.0);
      record_scheme_result(rep, sig + std::string("DVA"), o, res);
    });
    // PM: unary coding on 10 2-bit MLCs, two-crossbar architecture.
    guard("PM", [&] {
      baselines::PmOptions po;
      po.variation.sigma = sigma;
      po.seed = 2021;
      const float acc = baselines::run_pm(*vgg, po, ds.test(), kRepeats);
      std::printf("%-12s %10.2f%% %10.2f%% %10.1f\n", "PM", 100 * acc,
                  100 * (ideal - acc), 2.5);
      record_measurement(rep, sig + std::string("PM"), acc);
    });
    // DVA+PM: variation-trained network deployed with PM coding.
    guard("DVA+PM", [&] {
      baselines::PmOptions po;
      po.variation.sigma = sigma;
      po.seed = 2021;
      const float acc = baselines::run_pm(*vgg_dva, po, ds.test(), kRepeats);
      std::printf("%-12s %10.2f%% %10.2f%% %10.1f\n", "DVA+PM", 100 * acc,
                  100 * (ideal - acc), 2.5);
      record_measurement(rep, sig + std::string("DVA+PM"), acc);
    });
    // This work: VAWO*+PWT on 4 2-bit MLCs, one-crossbar.
    guard("this work", [&] {
      auto o = bench_options(core::Scheme::VAWOStarPWT, 16,
                             rram::CellKind::MLC2, sigma);
      const auto res =
          core::run_scheme(*vgg, o, ds.train(), ds.test(), kRepeats);
      std::printf("%-12s %10.2f%% %10.2f%% %10.1f\n", "this work",
                  100 * res.mean_accuracy,
                  100 * (ideal - res.mean_accuracy), 1.0);
      record_scheme_result(rep, sig + std::string("this work"), o, res);
    });
    // DVA + this work: the paper's stated future work ("orthogonal to
    // many existing training-based methods such as DVA... explore how to
    // combine them"). Same hardware budget as "this work".
    guard("DVA+ours", [&] {
      auto o = bench_options(core::Scheme::VAWOStarPWT, 16,
                             rram::CellKind::MLC2, sigma);
      const auto res =
          core::run_scheme(*vgg_dva, o, ds.train(), ds.test(), kRepeats);
      std::printf("%-12s %10.2f%% %10.2f%% %10.1f   (future work, Sec. V)\n",
                  "DVA+ours", 100 * res.mean_accuracy,
                  100 * (ideal - res.mean_accuracy), 1.0);
      record_scheme_result(rep, sig + std::string("DVA+ours"), o, res);
    });
    // Write-verify: the iterative-programming workaround the paper cites
    // as the lifetime-costly CCV fix ([5], [6] in Sec. I). Same device
    // budget as this work, no offsets, pulse budget 8.
    guard("write-verify", [&] {
      rram::WeightProgrammer prog({rram::CellKind::MLC2, 200.0}, 8,
                                  {sigma, 0.0});
      baselines::WriteVerifyOptions wopt;
      wopt.tolerance = 0.05;
      wopt.max_pulses = 8;
      const baselines::WvDeployResult wv = baselines::run_write_verify(
          *vgg, prog, wopt, ds.test(), kRepeats, 2021);
      std::printf("%-12s %10.2f%% %10.2f%% %10.1f   (%.1f pulses/device)\n",
                  "write-verify", 100 * wv.mean_accuracy,
                  100 * (ideal - wv.mean_accuracy), 1.0, wv.mean_pulses);
      record_measurement(rep, sig + std::string("write-verify"),
                         wv.mean_accuracy);
      record_measurement(rep, sig + std::string("write-verify/mean_pulses"),
                         wv.mean_pulses);
    });
  }
  std::printf(
      "\npaper (sigma=0.8): DVA 13%% / 2, PM 12.02%% / 2.5, DVA+PM 5.48%% "
      "/ 2.5, this work 4.94%% / 1\n"
      "expected shape: this work has the smallest loss at 50%%+ fewer "
      "crossbars.\n");
  return finish_report(rep);
}
