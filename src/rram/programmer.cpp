#include "rram/programmer.h"

#include <cmath>
#include <string>

#include "core/check.h"

namespace rdo::rram {

WeightProgrammer::WeightProgrammer(CellModel cell, int weight_bits,
                                   VariationModel variation,
                                   FaultModel faults)
    : cell_(cell),
      weight_bits_(weight_bits),
      variation_(variation),
      faults_(faults) {
  RDO_CHECK(weight_bits_ > 0 && weight_bits_ % cell_.bits() == 0,
            "WeightProgrammer: " + std::to_string(weight_bits_) +
                " weight bits not divisible into " +
                std::to_string(cell_.bits()) + "-bit cells");
  cells_ = weight_bits_ / cell_.bits();
  RDO_CHECK(weight_bits_ <= 30,
            "WeightProgrammer: " + std::to_string(weight_bits_) +
                " weight bits do not fit an int CTW");
  const int top = cell_.states() - 1;
  state_mask_ = top;
  hrs_ = cell_.hrs_offset();
  stuck_hrs_value_ = cell_.read_value(0, 1.0);
  stuck_lrs_value_ = cell_.read_value(top, 1.0);
  stuck_rate_ = faults_.stuck_hrs_rate + faults_.stuck_lrs_rate;
  sigma_ccv_ = variation_.sigma_ccv();
  double radix_pow = 1.0;
  for (int k = 0; k < cells_; ++k) {
    radix_pow_[static_cast<std::size_t>(k)] = radix_pow;
    radix_pow *= cell_.radix();
  }
}

namespace {

void check_ctw(int v, int max_weight) {
  RDO_CHECK(v >= 0 && v <= max_weight,
            "WeightProgrammer: CTW " + std::to_string(v) + " outside [0, " +
                std::to_string(max_weight) + "]");
}

}  // namespace

int WeightProgrammer::state_of(int v, int k) const {
  return (v >> (k * cell_.bits())) & state_mask_;
}

double WeightProgrammer::programmed_cell_value(int state, double factor,
                                               rdo::nn::Rng& rng) const {
  if (faults_.any()) {
    const double u = rng.uniform();
    if (u < faults_.stuck_hrs_rate) return stuck_hrs_value_;
    if (u < stuck_rate_) return stuck_lrs_value_;
  }
  return (static_cast<double>(state) + hrs_) * factor - hrs_;
}

std::array<int, WeightProgrammer::kMaxCells> WeightProgrammer::slice_states(
    int v) const {
  check_ctw(v, max_weight());
  std::array<int, kMaxCells> states{};
  for (int k = 0; k < cells_; ++k) {
    states[static_cast<std::size_t>(k)] = state_of(v, k);
  }
  return states;
}

std::vector<int> WeightProgrammer::slice(int v) const {
  const std::array<int, kMaxCells> states = slice_states(v);
  return {states.begin(), states.begin() + cells_};
}

double WeightProgrammer::composite_leakage() const {
  double leak = 0.0;
  for (int k = 0; k < cells_; ++k) {
    leak += radix_pow_[static_cast<std::size_t>(k)] * hrs_;
  }
  return leak;
}

void WeightProgrammer::program_weights(std::span<const int> ctw,
                                       rdo::nn::Rng& rng,
                                       std::span<double> cells,
                                       std::span<double> crw) const {
  const auto cpw = static_cast<std::size_t>(cells_);
  const bool keep = !cells.empty();
  RDO_CHECK(crw.size() == ctw.size() &&
                (!keep || cells.size() == ctw.size() * cpw),
            "WeightProgrammer::program_weights: " +
                std::to_string(ctw.size()) + " CTWs, " +
                std::to_string(crw.size()) + " CRWs and " +
                std::to_string(cells.size()) + " cells");
  const bool shared = variation_.scope == VariationScope::PerWeight;
  const int vmax = max_weight();
  for (std::size_t i = 0; i < ctw.size(); ++i) {
    const int v = ctw[i];
    check_ctw(v, vmax);
    // PerWeight scope: one factor for the whole weight, drawn first.
    const double shared_factor =
        shared ? variation_.sample_factor(rng) : 1.0;
    double acc = 0.0;
    for (std::size_t k = 0; k < cpw; ++k) {
      const double f = shared ? shared_factor : variation_.sample_factor(rng);
      const double val =
          programmed_cell_value(state_of(v, static_cast<int>(k)), f, rng);
      if (keep) cells[i * cpw + k] = val;
      acc += radix_pow_[k] * val;
    }
    crw[i] = acc;
  }
}

double WeightProgrammer::program(int v, rdo::nn::Rng& rng) const {
  double crw = 0.0;
  program_weights({&v, 1}, rng, {}, {&crw, 1});
  return crw;
}

double WeightProgrammer::program_with_ddv(
    int v, const std::vector<double>& ddv_theta, rdo::nn::Rng& rng) const {
  RDO_CHECK(ddv_theta.size() == static_cast<std::size_t>(cells_),
            "program_with_ddv: " + std::to_string(ddv_theta.size()) +
                " DDV thetas for " + std::to_string(cells_) + " cells");
  check_ctw(v, max_weight());
  const bool shared =
      variation_.scope == VariationScope::PerWeight;
  // PerWeight scope: one theta for the whole weight, so one exp.
  const double shared_factor =
      shared ? std::exp(ddv_theta[0] + rng.normal(0.0, sigma_ccv_)) : 1.0;
  double crw = 0.0;
  for (std::size_t k = 0; k < ddv_theta.size(); ++k) {
    const double factor =
        shared ? shared_factor
               : std::exp(ddv_theta[k] + rng.normal(0.0, sigma_ccv_));
    crw += radix_pow_[k] *
           programmed_cell_value(state_of(v, static_cast<int>(k)), factor,
                                 rng);
  }
  return crw;
}

double WeightProgrammer::analytic_mean(int v) const {
  const double m = variation_.mean_factor();
  if (variation_.scope == VariationScope::PerWeight) {
    const double leak = composite_leakage();
    return (static_cast<double>(v) + leak) * m - leak;
  }
  // E[(s+c)e^theta - c] = (s+c) M - c per cell.
  const double c = cell_.hrs_offset();
  const std::vector<int> states = slice(v);
  double mean = 0.0;
  double radix_pow = 1.0;
  for (int s : states) {
    mean += radix_pow * ((static_cast<double>(s) + c) * m - c);
    radix_pow *= cell_.radix();
  }
  return mean;
}

double WeightProgrammer::analytic_var(int v) const {
  const double vf = variation_.var_factor();
  if (variation_.scope == VariationScope::PerWeight) {
    const double a = static_cast<double>(v) + composite_leakage();
    return a * a * vf;
  }
  // Var[(s+c)e^theta] = (s+c)^2 Var[e^theta]; cells are independent.
  const double c = cell_.hrs_offset();
  const std::vector<int> states = slice(v);
  double var = 0.0;
  double radix_pow = 1.0;
  for (int s : states) {
    const double a = static_cast<double>(s) + c;
    var += radix_pow * radix_pow * a * a * vf;
    radix_pow *= cell_.radix();
  }
  return var;
}

}  // namespace rdo::rram
