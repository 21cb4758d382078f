// PM baseline: unary synapse coding with priority mapping on a
// two-crossbar architecture (Ma et al., "Go Unary", DATE'20 [12]).
//
// Each 8-bit weight magnitude is hybrid-coded over 10 2-bit MLCs: two
// binary cells (radix 4) hold the 4 LSBs, eight unary (thermometer) cells
// hold the 4 MSBs at 16 weight-units per state step. Unary coding spreads
// the high-significance part over many devices, so independent per-device
// variations average out instead of one MSB device dominating the error —
// the mechanism behind PM's robustness. Positive and negative weights
// live in separate crossbars (two-crossbar architecture); the idle side
// still contributes HRS leakage noise.
//
// Priority mapping proper permutes weight rows onto measured low-DDV
// devices. Its benefit exists only for the persistent (DDV) component of
// variation; under pure CCV a device's next cycle is unpredictable, which
// is exactly the paper's critique. We implement the DDV-aware row
// permutation and it becomes a no-op when ddv_fraction = 0.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "nn/trainer.h"
#include "rram/cell.h"
#include "rram/variation.h"

namespace rdo::baselines {

struct PmOptions {
  int unary_cells = 8;   ///< thermometer cells (4 MSBs)
  int binary_cells = 2;  ///< radix-4 cells (4 LSBs)
  rdo::rram::CellModel cell{rdo::rram::CellKind::MLC2, 200.0};
  /// Per-device variation (PM's averaging effect requires independent
  /// draws per cell, so VariationScope is ignored here).
  rdo::rram::VariationModel variation;
  bool priority_mapping = true;
  std::uint64_t seed = 11;
};

/// Deploy `net` with PM coding for `repeats` programming cycles; returns
/// the mean test accuracy. Programs and evaluates a clone of `net`, so the
/// caller's network is left as it was.
float run_pm(const rdo::nn::Layer& net, const PmOptions& opt,
             const rdo::nn::DataView& test, int repeats,
             std::int64_t eval_batch = 64);

/// Devices per weight of the PM coding (for crossbar-count accounting).
inline int pm_cells_per_weight(const PmOptions& opt) {
  return opt.unary_cells + opt.binary_cells;
}

}  // namespace rdo::baselines
