// Scenario: run an entire network on the device-level simulator.
//
// Everything the accelerator does happens on simulated hardware here:
// bit-sliced cells in 128x128-class crossbar arrays, per-device
// variation, group-by-group wordline activation, digital Sum+Multi offset
// units, complement post-processing, the ISAAC weight shift, and digital
// ReLU/bias between layers. sim::DeviceSimBackend is the
// slow-but-faithful counterpart to core::EffectiveWeightBackend: it is an
// effective-weight backend that evaluates on crossbars, so both execute
// the same compiled core::DeploymentPlan from one programmed state and
// their deterministic pipeline counters are equal by construction.
// This example tells the same accuracy story entirely in devices, plus
// one sample's device-level logits and the energy model.
#include <cstdio>

#include "arch/energy.h"
#include "core/plan.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "sim/device_backend.h"

using namespace rdo;

int main() {
  data::SyntheticSpec spec = data::mnist_like();
  spec.height = spec.width = 12;
  spec.train_per_class = 60;
  spec.test_per_class = 12;
  spec.noise = 0.15;
  spec.max_shift = 1.0;
  const data::SyntheticDataset ds = data::make_synthetic(spec);

  nn::Rng rng(3);
  nn::Sequential net;
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(144, 32, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Dense>(32, 10, rng);
  nn::SGD opt(net.params(), 0.1f);
  for (int e = 0; e < 15; ++e) nn::train_epoch(net, opt, ds.train(), 16, rng);
  const float ideal = nn::evaluate(net, ds.test(), 64).accuracy;
  std::printf("ideal (float) accuracy: %.2f%%\n\n", 100 * ideal);

  core::DeployOptions base;
  base.cell = {rram::CellKind::MLC2, 200.0};
  base.variation.sigma = 0.4;
  base.offsets.m = 16;
  base.seed = 7;

  // Plain deployment: CTW = NTW, no offsets.
  core::DeployOptions plain_opt = base;
  plain_opt.scheme = core::Scheme::Plain;
  const core::DeploymentPlan plain_plan =
      core::compile_plan(net, plain_opt, ds.train());
  sim::DeviceSimBackend plain(plain_plan, net);
  plain.program_cycle(0);
  std::printf("device-level, plain:              %.2f%%  (%lld crossbars)\n",
              100 * plain.evaluate(ds.test()),
              static_cast<long long>(plain.crossbar_count()));

  // VAWO* CTWs with digital offsets.
  core::DeployOptions vawo_opt = base;
  vawo_opt.scheme = core::Scheme::VAWOStar;
  const core::DeploymentPlan vawo_plan =
      core::compile_plan(net, vawo_opt, ds.train());
  sim::DeviceSimBackend vawo(vawo_plan, net);
  vawo.program_cycle(0);
  std::printf("device-level, VAWO*:              %.2f%%\n",
              100 * vawo.evaluate(ds.test()));

  // Post-writing tuning on this cycle's measured conductances.
  core::DeployOptions full_opt = base;
  full_opt.scheme = core::Scheme::VAWOStarPWT;
  full_opt.pwt.epochs = 1;
  full_opt.pwt.max_samples = 200;
  const core::DeploymentPlan full_plan =
      core::compile_plan(net, full_opt, ds.train());
  sim::DeviceSimBackend full(full_plan, net);
  full.program_cycle(0);
  full.tune(ds.train());
  std::printf("device-level, VAWO* + PWT:        %.2f%%\n",
              100 * full.evaluate(ds.test()));

  // Device-level logits of one sample, on full-precision inputs.
  std::printf("\ndevice-level logits (first test sample, VAWO* + PWT):\n");
  const std::int64_t sample = ds.test_images.size() / ds.test_images.dim(0);
  std::vector<double> x(static_cast<std::size_t>(sample));
  for (std::int64_t j = 0; j < sample; ++j) {
    x[static_cast<std::size_t>(j)] = ds.test_images[j];
  }
  const auto logits = full.forward(x);
  std::printf("  logits[0..2] via full-precision inputs: %.3f %.3f %.3f\n",
              logits[0], logits[1], logits[2]);

  // Energy estimate for one inference.
  arch::VmmGeometry g;
  g.m = 16;
  const double pj = arch::network_energy_pj(
      full.crossbar_count(), /*vmm_count=*/1, g, 128.0 * 128.0 * 0.5);
  std::printf("\nestimated energy per inference: %.2f nJ (%lld crossbars)\n",
              pj * 1e-3, static_cast<long long>(full.crossbar_count()));
  return 0;
}
