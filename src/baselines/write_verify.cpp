#include "baselines/write_verify.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>

#include "nn/matrix_op.h"
#include "quant/quantizer.h"

namespace rdo::baselines {

using namespace rdo::nn;

WriteVerifyResult write_verify(const rdo::rram::WeightProgrammer& prog,
                               int v, const WriteVerifyOptions& opt,
                               rdo::nn::Rng& rng) {
  WriteVerifyResult res;
  const double bound =
      opt.tolerance * std::max(static_cast<double>(v), opt.tolerance_floor);
  double best = 0.0;
  double best_err = -1.0;
  for (int p = 0; p < opt.max_pulses; ++p) {
    const double crw = prog.program(v, rng);
    ++res.pulses;
    const double err = std::fabs(crw - static_cast<double>(v));
    if (best_err < 0.0 || err < best_err) {
      best = crw;
      best_err = err;
    }
    if (err <= bound) {
      res.crw = crw;
      res.converged = true;
      return res;
    }
  }
  // Keep the best attempt (the device retains its last-best programming).
  res.crw = best;
  res.converged = false;
  return res;
}

WvDeployResult run_write_verify(const Layer& net,
                                const rdo::rram::WeightProgrammer& prog,
                                const WriteVerifyOptions& opt,
                                const DataView& test, int repeats,
                                std::uint64_t seed,
                                std::int64_t eval_batch) {
  // Program a twin, so the caller's network keeps its float weights.
  const std::unique_ptr<Layer> twin = net.clone();
  const std::vector<MatrixOp*> ops = matrix_ops(*twin);
  std::vector<rdo::quant::LayerQuant> lqs;
  for (const MatrixOp* op : ops) {
    lqs.push_back(rdo::quant::quantize_matrix(*op, prog.weight_bits()));
  }

  WvDeployResult out;
  double total_acc = 0.0;
  long long total_pulses = 0, total_devices = 0, total_converged = 0;
  Rng master(seed);
  for (int cycle = 0; cycle < repeats; ++cycle) {
    Rng rng = master.split(0x77u + static_cast<std::uint64_t>(cycle));
    for (std::size_t k = 0; k < ops.size(); ++k) {
      const auto& lq = lqs[k];
      const std::span<float> w = ops[k]->weights();
      for (std::size_t i = 0; i < w.size(); ++i) {
        const WriteVerifyResult wv = write_verify(prog, lq.q[i], opt, rng);
        w[i] = lq.dequant(static_cast<float>(wv.crw));
        total_pulses += wv.pulses;
        total_converged += wv.converged ? 1 : 0;
        ++total_devices;
      }
    }
    total_acc += evaluate(*twin, test, eval_batch).accuracy;
  }
  out.mean_accuracy = static_cast<float>(total_acc / std::max(1, repeats));
  out.mean_pulses =
      static_cast<double>(total_pulses) / static_cast<double>(total_devices);
  out.converged_share = static_cast<double>(total_converged) /
                        static_cast<double>(total_devices);
  return out;
}

}  // namespace rdo::baselines
