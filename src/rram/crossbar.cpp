#include "rram/crossbar.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/check.h"

namespace rdo::rram {

Crossbar::Crossbar(CrossbarConfig cfg) : cfg_(cfg) {
  RDO_CHECK(cfg_.rows > 0 && cfg_.cols > 0,
            "Crossbar: non-positive dimensions " + std::to_string(cfg_.rows) +
                "x" + std::to_string(cfg_.cols));
  RDO_CHECK(cfg_.active_wordlines > 0 && cfg_.active_wordlines <= cfg_.rows,
            "Crossbar: active_wordlines " +
                std::to_string(cfg_.active_wordlines) + " outside [1, " +
                std::to_string(cfg_.rows) + "]");
  states_.assign(static_cast<std::size_t>(cfg_.rows) * cfg_.cols, 0);
  values_.assign(states_.size(), cfg_.cell.read_value(0, 1.0));
}

void Crossbar::program(const std::vector<int>& states, rdo::nn::Rng& rng) {
  RDO_CHECK(states.size() == states_.size(),
            "Crossbar::program: got " + std::to_string(states.size()) +
                " states for " + std::to_string(states_.size()) + " cells");
  states_ = states;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    values_[i] =
        cfg_.cell.read_value(states_[i], cfg_.variation.sample_factor(rng));
  }
}

void Crossbar::program_ideal(const std::vector<int>& states) {
  RDO_CHECK(states.size() == states_.size(),
            "Crossbar::program_ideal: got " + std::to_string(states.size()) +
                " states for " + std::to_string(states_.size()) + " cells");
  states_ = states;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    values_[i] = cfg_.cell.read_value(states_[i], 1.0);
  }
}

void Crossbar::program_values(std::vector<int> states,
                              std::vector<double> values) {
  RDO_CHECK(states.size() == states_.size() &&
                values.size() == states_.size(),
            "Crossbar::program_values: state/value count mismatch");
  states_ = std::move(states);
  values_ = std::move(values);
}

double Crossbar::cell_value(int r, int c) const {
  RDO_DCHECK(r >= 0 && r < cfg_.rows && c >= 0 && c < cfg_.cols,
             "Crossbar::cell_value: (r, c) outside the array");
  return values_[idx(r, c)];
}

int Crossbar::cycles_per_vmm() const {
  return (cfg_.rows + cfg_.active_wordlines - 1) / cfg_.active_wordlines;
}

std::vector<double> Crossbar::vmm(const std::vector<double>& x) const {
  return vmm_rows(x, 0, cfg_.rows);
}

std::vector<double> Crossbar::vmm_rows(const std::vector<double>& x, int r0,
                                       int r1) const {
  RDO_CHECK(static_cast<int>(x.size()) == cfg_.rows,
            "Crossbar::vmm: input length " + std::to_string(x.size()) +
                " for " + std::to_string(cfg_.rows) + " rows");
  RDO_CHECK(r0 >= 0 && r1 <= cfg_.rows && r0 % cfg_.active_wordlines == 0,
            "Crossbar::vmm_rows: bad row range [" + std::to_string(r0) +
                ", " + std::to_string(r1) + ")");
  std::vector<double> y(static_cast<std::size_t>(cfg_.cols), 0.0);
  // ADC full-scale: the largest group partial sum with unit inputs.
  const double full_scale =
      static_cast<double>(cfg_.active_wordlines) *
      static_cast<double>(cfg_.cell.states() - 1);
  const double adc_levels =
      cfg_.adc_bits > 0 ? static_cast<double>((1 << cfg_.adc_bits) - 1) : 0.0;
  for (int g0 = r0; g0 < r1; g0 += cfg_.active_wordlines) {
    const int g1 = std::min(r1, g0 + cfg_.active_wordlines);
    for (int c = 0; c < cfg_.cols; ++c) {
      double partial = 0.0;
      for (int r = g0; r < g1; ++r) {
        const double xv = x[static_cast<std::size_t>(r)];
        if (xv != 0.0) partial += xv * cell_value(r, c);
      }
      if (cfg_.adc_bits > 0) {
        const double q =
            std::round(std::clamp(partial / full_scale, 0.0, 1.0) *
                       adc_levels);
        partial = q / adc_levels * full_scale;
      }
      y[static_cast<std::size_t>(c)] += partial;
    }
  }
  return y;
}

double Crossbar::total_read_power() const {
  double p = 0.0;
  for (int s : states_) p += cfg_.cell.read_power(s);
  return p;
}

}  // namespace rdo::rram
