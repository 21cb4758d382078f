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
}

std::array<int, WeightProgrammer::kMaxCells> WeightProgrammer::slice_states(
    int v) const {
  RDO_CHECK(v >= 0 && v <= max_weight(),
            "WeightProgrammer::slice: CTW " + std::to_string(v) +
                " outside [0, " + std::to_string(max_weight()) + "]");
  std::array<int, kMaxCells> states{};
  const int mask = cell_.states() - 1;
  for (int k = 0; k < cells_; ++k) {
    states[static_cast<std::size_t>(k)] = (v >> (k * cell_.bits())) & mask;
  }
  return states;
}

std::vector<int> WeightProgrammer::slice(int v) const {
  const std::array<int, kMaxCells> states = slice_states(v);
  return {states.begin(), states.begin() + cells_};
}

double WeightProgrammer::compose(std::span<const double> cell_values) const {
  double crw = 0.0;
  double radix_pow = 1.0;
  for (double val : cell_values) {
    crw += radix_pow * val;
    radix_pow *= cell_.radix();
  }
  return crw;
}

double WeightProgrammer::composite_leakage() const {
  const double c = cell_.hrs_offset();
  double leak = 0.0;
  double radix_pow = 1.0;
  for (int k = 0; k < cells_; ++k) {
    leak += radix_pow * c;
    radix_pow *= cell_.radix();
  }
  return leak;
}

double WeightProgrammer::programmed_cell_value(int state, double factor,
                                               rdo::nn::Rng& rng) const {
  if (faults_.any()) {
    const double u = rng.uniform();
    if (u < faults_.stuck_hrs_rate) return cell_.read_value(0, 1.0);
    if (u < faults_.stuck_hrs_rate + faults_.stuck_lrs_rate) {
      return cell_.read_value(cell_.states() - 1, 1.0);
    }
  }
  return cell_.read_value(state, factor);
}

void WeightProgrammer::program_cells(int v, rdo::nn::Rng& rng,
                                     std::span<double> out) const {
  RDO_CHECK(out.size() == static_cast<std::size_t>(cells_),
            "program_cells: buffer of " + std::to_string(out.size()) +
                " values for " + std::to_string(cells_) + " cells");
  const std::array<int, kMaxCells> states = slice_states(v);
  const bool shared =
      variation_.scope == VariationScope::PerWeight;
  const double shared_factor = shared ? variation_.sample_factor(rng) : 1.0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    const double f = shared ? shared_factor : variation_.sample_factor(rng);
    out[k] = programmed_cell_value(states[k], f, rng);
  }
}

double WeightProgrammer::program(int v, rdo::nn::Rng& rng) const {
  std::array<double, kMaxCells> vals{};
  const std::span<double> cells(vals.data(),
                                static_cast<std::size_t>(cells_));
  program_cells(v, rng, cells);
  return compose(cells);
}

double WeightProgrammer::program_with_ddv(
    int v, const std::vector<double>& ddv_theta, rdo::nn::Rng& rng) const {
  RDO_CHECK(ddv_theta.size() == static_cast<std::size_t>(cells_),
            "program_with_ddv: " + std::to_string(ddv_theta.size()) +
                " DDV thetas for " + std::to_string(cells_) + " cells");
  const std::array<int, kMaxCells> states = slice_states(v);
  std::array<double, kMaxCells> vals{};
  const bool shared =
      variation_.scope == VariationScope::PerWeight;
  // PerWeight scope: one theta for the whole weight, so one exp.
  const double shared_factor =
      shared ? std::exp(ddv_theta[0] + variation_.sample_ccv_theta(rng))
             : 1.0;
  for (std::size_t k = 0; k < ddv_theta.size(); ++k) {
    const double factor =
        shared ? shared_factor
               : std::exp(ddv_theta[k] + variation_.sample_ccv_theta(rng));
    vals[k] = programmed_cell_value(states[k], factor, rng);
  }
  return compose({vals.data(), ddv_theta.size()});
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
