// Write-verify baseline: iterative program-and-verify (Lee et al. [5],
// Alibart et al. [6]).
//
// The classic CCV workaround: after programming, read the device back and
// reprogram until the CRW lands within a relative tolerance of the
// target, up to a pulse budget. It recovers accuracy without any
// architectural support but multiplies programming pulses — the lifetime
// cost the paper cites as its drawback (§I). `run_write_verify` deploys a
// network this way and reports both accuracy and the mean pulse count per
// device, so the accuracy-vs-lifetime trade-off is measurable.
#pragma once

#include <cstdint>

#include "nn/layer.h"
#include "nn/trainer.h"
#include "rram/programmer.h"

namespace rdo::baselines {

struct WriteVerifyOptions {
  /// Accept when |CRW - v| <= tolerance * max(v, tolerance_floor).
  double tolerance = 0.1;
  double tolerance_floor = 8.0;  ///< absolute floor in weight units
  int max_pulses = 8;            ///< programming attempts per weight
};

struct WriteVerifyResult {
  double crw = 0.0;
  int pulses = 0;
  bool converged = false;
};

/// Program one CTW with verify-and-retry.
WriteVerifyResult write_verify(const rdo::rram::WeightProgrammer& prog,
                               int v, const WriteVerifyOptions& opt,
                               rdo::nn::Rng& rng);

struct WvDeployResult {
  float mean_accuracy = 0.0f;
  double mean_pulses = 0.0;     ///< programming pulses per device per cycle
  double converged_share = 0.0; ///< fraction of weights within tolerance
};

/// Deploy `net` (plain one-crossbar, no offsets) with write-verify
/// programming for `repeats` cycles. Programs and evaluates a clone of
/// `net`, so the caller's network is left as it was.
WvDeployResult run_write_verify(const rdo::nn::Layer& net,
                                const rdo::rram::WeightProgrammer& prog,
                                const WriteVerifyOptions& opt,
                                const rdo::nn::DataView& test, int repeats,
                                std::uint64_t seed,
                                std::int64_t eval_batch = 64);

}  // namespace rdo::baselines
