#include "baselines/pm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>

#include "nn/matrix_op.h"

namespace rdo::baselines {

using namespace rdo::nn;

namespace {

struct CodedLayer {
  MatrixOp* op = nullptr;
  float scale = 1.0f;
  std::vector<int> q;  ///< signed quantized weights, |q| <= 255
};

/// Cell significances of the hybrid code: binary cells x1, x4; unary
/// cells x16 each.
std::vector<int> slot_significance(const PmOptions& opt) {
  std::vector<int> sig;
  int radix = 1;
  for (int k = 0; k < opt.binary_cells; ++k) {
    sig.push_back(radix);
    radix *= opt.cell.states();
  }
  for (int k = 0; k < opt.unary_cells; ++k) sig.push_back(radix);
  return sig;
}

/// Cell states coding magnitude `mag` in [0, 255].
std::vector<int> code_states(int mag, const PmOptions& opt) {
  std::vector<int> states;
  const int smax = opt.cell.states() - 1;
  int lsb_levels = 1;
  for (int k = 0; k < opt.binary_cells; ++k) lsb_levels *= opt.cell.states();
  int lsb = mag % lsb_levels;
  const int msb = mag / lsb_levels;
  for (int k = 0; k < opt.binary_cells; ++k) {
    states.push_back(lsb % opt.cell.states());
    lsb /= opt.cell.states();
  }
  for (int k = 0; k < opt.unary_cells; ++k) {
    states.push_back(std::clamp(msb - smax * k, 0, smax));
  }
  return states;
}

}  // namespace

float run_pm(const Layer& net, const PmOptions& opt, const DataView& test,
             int repeats, std::int64_t eval_batch) {
  // The coding must cover 8-bit magnitudes: the binary cells hold
  // log(lsb_levels) bits and the unary cells need capacity for the rest.
  {
    int lsb_levels = 1;
    for (int k = 0; k < opt.binary_cells; ++k) {
      lsb_levels *= opt.cell.states();
    }
    const int msb_max = 255 / lsb_levels;
    if ((opt.cell.states() - 1) * opt.unary_cells < msb_max) {
      throw std::invalid_argument(
          "run_pm: unary cell capacity cannot encode 8-bit magnitudes");
    }
  }
  // Program a twin, so the caller's network keeps its float weights.
  const std::unique_ptr<Layer> twin = net.clone();
  std::vector<CodedLayer> layers;
  for (MatrixOp* op : matrix_ops(*twin)) {
    // Signed symmetric quantization to 8-bit magnitudes.
    CodedLayer cl;
    cl.op = op;
    const std::span<const float> w = op->weights();
    float maxabs = 0.0f;
    for (const float v : w) maxabs = std::max(maxabs, std::fabs(v));
    cl.scale = (maxabs > 0.0f ? maxabs : 1.0f) / 255.0f;
    cl.q.resize(w.size());
    for (std::size_t j = 0; j < w.size(); ++j) {
      cl.q[j] = std::clamp(
          static_cast<int>(std::lround(w[j] / cl.scale)), -255, 255);
    }
    layers.push_back(std::move(cl));
  }

  const std::vector<int> sig = slot_significance(opt);
  const int slots = pm_cells_per_weight(opt);
  const bool has_ddv = opt.variation.sigma_ddv() > 0.0;
  Rng master(opt.seed);

  // Persistent DDV thetas (both crossbars), drawn once per deployment.
  std::vector<std::vector<double>> ddv(layers.size());
  if (has_ddv) {
    Rng drng = master.split(0xDD);
    for (std::size_t li = 0; li < layers.size(); ++li) {
      ddv[li].resize(layers[li].q.size() * static_cast<std::size_t>(slots) *
                     2);
      for (auto& t : ddv[li]) t = opt.variation.sample_ddv_theta(drng);
    }
  }

  double total_acc = 0.0;
  for (int cycle = 0; cycle < repeats; ++cycle) {
    Rng crng = master.split(0xCC00 + static_cast<std::uint64_t>(cycle));
    for (std::size_t li = 0; li < layers.size(); ++li) {
      CodedLayer& cl = layers[li];
      const std::span<float> w = cl.op->weights();
      for (std::size_t wi = 0; wi < w.size(); ++wi) {
        const int q = cl.q[wi];
        std::vector<int> states = code_states(std::abs(q), opt);
        // Device slots for this weight: [0, slots) on the sign side,
        // [slots, 2*slots) on the idle side.
        const std::size_t base = wi * static_cast<std::size_t>(slots) * 2;
        std::vector<int> slot_of(states.size());
        std::iota(slot_of.begin(), slot_of.end(), 0);
        if (opt.priority_mapping && has_ddv) {
          // Priority mapping: most significant / highest-state cells to
          // the lowest-|DDV| devices of this weight's device group.
          std::vector<int> by_importance(states.size());
          std::iota(by_importance.begin(), by_importance.end(), 0);
          std::stable_sort(by_importance.begin(), by_importance.end(),
                           [&](int a, int b) {
                             return sig[static_cast<std::size_t>(a)] *
                                        states[static_cast<std::size_t>(a)] >
                                    sig[static_cast<std::size_t>(b)] *
                                        states[static_cast<std::size_t>(b)];
                           });
          std::vector<int> by_quality(states.size());
          std::iota(by_quality.begin(), by_quality.end(), 0);
          std::stable_sort(by_quality.begin(), by_quality.end(),
                           [&](int a, int b) {
                             return std::fabs(ddv[li][base + a]) <
                                    std::fabs(ddv[li][base + b]);
                           });
          for (std::size_t k = 0; k < states.size(); ++k) {
            slot_of[static_cast<std::size_t>(by_importance[k])] =
                by_quality[k];
          }
        }
        double active = 0.0, idle = 0.0;
        for (std::size_t k = 0; k < states.size(); ++k) {
          const int slot = slot_of[k];
          const double th_a =
              (has_ddv ? ddv[li][base + slot] : 0.0) +
              opt.variation.sample_ccv_theta(crng);
          active += sig[k] * opt.cell.read_value(states[k], std::exp(th_a));
          const double th_i =
              (has_ddv ? ddv[li][base + slots + slot] : 0.0) +
              opt.variation.sample_ccv_theta(crng);
          idle += sig[k] * opt.cell.read_value(0, std::exp(th_i));
        }
        const double mag = active - idle;
        w[wi] = static_cast<float>((q >= 0 ? mag : -mag) * cl.scale);
      }
    }
    total_acc += rdo::nn::evaluate(*twin, test, eval_batch).accuracy;
  }
  return static_cast<float>(total_acc / std::max(1, repeats));
}

}  // namespace rdo::baselines
