// Table II: total area/power overhead of the digital-offset support in an
// ISAAC tile (0.372 mm^2 / 330 mW baseline, 2-bit MLC).
//
// Paper reference:
//   m=16 : +0.049 mm^2 (13.3%), +8.05 mW (2.4%)
//   m=128: +0.064 mm^2 (17.2%), +22.77 mW (6.9%)
// Shape: area overhead low-double-digit %, power single-digit %, both
// larger at m = 128 (adder growth outpaces register savings, and the
// read-power saving shrinks).
#include <cstdio>

#include "arch/isaac_cost.h"
#include "common.h"
#include "core/plan.h"

using namespace rdo;
using namespace rdo::bench;

int main() {
  obs::BenchReport rep("table2_overhead", 2021);

  // Measured reading-power ratios for ResNet (the paper combines Table I's
  // ResNet ratios into Table II).
  const data::SyntheticDataset cifar = bench_cifar();
  std::unique_ptr<nn::Sequential> resnet;
  {
    obs::TraceSpan t("train_models", "phase", rep.phase("train_models"));
    resnet = cached_resnet(cifar, nullptr);
  }

  const arch::TileParams tp;
  std::printf("=== Table II: overhead in an ISAAC tile ===\n\n");
  std::printf("ISAAC tile baseline: %.3f mm^2, %.0f mW, %d crossbars\n\n",
              tp.tile_area_mm2, tp.tile_power_mw, tp.crossbars_per_tile);
  std::printf("%-6s %-10s %-12s %-10s %-12s\n", "m", "area/mm2", "area ovh",
              "power/mW", "power ovh");
  for (int m : {16, 128}) {
    std::string tag = "m";
    tag += std::to_string(m);
    try {
      obs::TraceSpan t("overhead_analysis", "phase",
                       rep.phase("overhead_analysis"));
      auto o = bench_options(core::Scheme::VAWOStar, m, rram::CellKind::MLC2,
                             0.5);
      const core::DeploymentPlan plan =
          core::compile_plan(*resnet, o, cifar.train());
      const double ratio =
          plan.assigned_read_power() / plan.plain_read_power();
      const arch::TileOverhead ov = arch::tile_overhead(m, 8, ratio, tp);
      std::printf("%-6d %-10.3f %-12s %-10.2f %-12s\n", m, ov.area_mm2,
                  (std::to_string(ov.area_pct).substr(0, 4) + "%").c_str(),
                  ov.power_mw,
                  (std::to_string(ov.power_pct).substr(0, 4) + "%").c_str());
      record_measurement(rep, tag + "/read_power_ratio", ratio);
      record_measurement(rep, tag + "/area_mm2", ov.area_mm2);
      record_measurement(rep, tag + "/area_pct", ov.area_pct);
      record_measurement(rep, tag + "/power_mw", ov.power_mw);
      record_measurement(rep, tag + "/power_pct", ov.power_pct);
    } catch (const std::exception& e) {
      rep.add_failure(tag, e.what());
    }
  }
  std::printf("\npaper: m=16: 0.049 mm^2 (13.3%%), 8.05 mW (2.4%%)\n");
  std::printf("       m=128: 0.064 mm^2 (17.2%%), 22.77 mW (6.9%%)\n");

  const arch::GateCosts g;
  std::printf("\nSum+Multi critical path: m=16 %.1f ns, m=128 %.1f ns "
              "(clock %.0f ns) -> fits the ISAAC pipeline\n",
              arch::sum_multi_delay_ns(16, g), arch::sum_multi_delay_ns(128, g),
              tp.clock_ns);
  std::printf("offset registers per crossbar (Eq. 9): m=16 -> %lld, "
              "m=128 -> %lld   [paper: 256 / 32]\n",
              arch::offset_hardware(16, 8, tp).register_bits / 8,
              arch::offset_hardware(128, 8, tp).register_bits / 8);
  record_measurement(rep, "delay_ns/m16", arch::sum_multi_delay_ns(16, g));
  record_measurement(rep, "delay_ns/m128", arch::sum_multi_delay_ns(128, g));
  return finish_report(rep);
}
