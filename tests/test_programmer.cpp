// Bit-sliced weight programming: slicing, composition, moments.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/check.h"
#include "rram/programmer.h"
#include "rram/rlut.h"
#include "sim_oracles.h"

using namespace rdo::rram;
using rdo::nn::Rng;

namespace {
const CellModel kSlc{CellKind::SLC, 200.0};
const CellModel kMlc{CellKind::MLC2, 200.0};
}  // namespace

TEST(Programmer, CellsPerWeight) {
  EXPECT_EQ(WeightProgrammer(kSlc, 8, {0.5, 0.0}).cells_per_weight(), 8);
  EXPECT_EQ(WeightProgrammer(kMlc, 8, {0.5, 0.0}).cells_per_weight(), 4);
  EXPECT_EQ(WeightProgrammer(kMlc, 4, {0.5, 0.0}).cells_per_weight(), 2);
}

TEST(Programmer, RejectsIndivisibleBits) {
  EXPECT_THROW(WeightProgrammer(kMlc, 7, {0.5, 0.0}), std::invalid_argument);
}

TEST(Programmer, RejectsWeightBitsBeyondAnIntCtw) {
  EXPECT_THROW(WeightProgrammer(kSlc, 32, {0.5, 0.0}), std::invalid_argument);
}

namespace {

/// The reference draw: one weight at a time, as programming was written
/// before the layer kernel (program_cells + compose, with the read value
/// and radix powers recomputed per cell).
double reference_cell_value(const WeightProgrammer& p, int state,
                            double factor, Rng& rng) {
  const FaultModel& faults = p.faults();
  const CellModel& cell = p.cell();
  if (faults.any()) {
    const double u = rng.uniform();
    if (u < faults.stuck_hrs_rate) return cell.read_value(0, 1.0);
    if (u < faults.stuck_hrs_rate + faults.stuck_lrs_rate) {
      return cell.read_value(cell.states() - 1, 1.0);
    }
  }
  return cell.read_value(state, factor);
}

double reference_weight(const WeightProgrammer& p, int v, Rng& rng,
                        std::span<double> out) {
  const auto states = p.slice_states(v);
  const VariationModel& var = p.variation();
  const bool shared = var.scope == VariationScope::PerWeight;
  const double shared_factor = shared ? var.sample_factor(rng) : 1.0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    const double f = shared ? shared_factor : var.sample_factor(rng);
    out[k] = reference_cell_value(p, states[k], f, rng);
  }
  double crw = 0.0;
  double radix_pow = 1.0;
  for (double val : out) {
    crw += radix_pow * val;
    radix_pow *= p.cell().radix();
  }
  return crw;
}

/// CTWs covering both ends of the range and a seeded spread between.
std::vector<int> sample_ctws(int max_weight) {
  std::vector<int> ctw = {0, max_weight, 1, max_weight - 1};
  Rng rng(99);
  for (int i = 0; i < 400; ++i) {
    ctw.push_back(static_cast<int>(rng.uniform_int(0, max_weight)));
  }
  return ctw;
}

}  // namespace

TEST(Programmer, ProgramWeightsMatchesPerWeightReferenceBitForBit) {
  const FaultModel no_faults{};
  const FaultModel faults{0.1, 0.05};
  for (const CellModel& cell : {kSlc, kMlc}) {
    for (VariationScope scope :
         {VariationScope::PerWeight, VariationScope::PerCell}) {
      for (const FaultModel& fm : {no_faults, faults}) {
        for (double sigma : {0.5, 0.0}) {
          const WeightProgrammer p(cell, 8, {sigma, 0.0, scope}, fm);
          const std::vector<int> ctw = sample_ctws(p.max_weight());
          const auto cpw = static_cast<std::size_t>(p.cells_per_weight());
          std::vector<double> want_cells(ctw.size() * cpw);
          std::vector<double> want_crw(ctw.size());
          Rng ref(31);
          for (std::size_t i = 0; i < ctw.size(); ++i) {
            want_crw[i] = reference_weight(
                p, ctw[i], ref,
                std::span<double>(want_cells).subspan(i * cpw, cpw));
          }
          for (bool keep : {true, false}) {
            SCOPED_TRACE(std::string(to_string(cell.kind)) +
                         (scope == VariationScope::PerWeight ? " per-weight"
                                                             : " per-cell") +
                         (fm.any() ? " faults" : "") + " sigma " +
                         std::to_string(sigma) + (keep ? " kept" : ""));
            std::vector<double> cells(keep ? ctw.size() * cpw : 0);
            std::vector<double> crw(ctw.size());
            Rng rng(31);
            p.program_weights(ctw, rng, cells, crw);
            EXPECT_EQ(std::memcmp(crw.data(), want_crw.data(),
                                  crw.size() * sizeof(double)),
                      0);
            if (keep) {
              EXPECT_EQ(std::memcmp(cells.data(), want_cells.data(),
                                    cells.size() * sizeof(double)),
                        0);
            }
            // Exactly the reference's draws were consumed.
            Rng after = ref;
            EXPECT_EQ(rng.engine()(), after.engine()());
          }
        }
      }
    }
  }
}

TEST(Programmer, ProgramIsTheOneWeightKernelCall) {
  for (const CellModel& cell : {kSlc, kMlc}) {
    WeightProgrammer p(cell, 8, {0.5, 0.0, VariationScope::PerCell});
    Rng a(17), b(17);
    for (int v : {0, 1, 77, 200, 255}) {
      std::vector<double> cells(static_cast<std::size_t>(p.cells_per_weight()));
      double crw = 0.0;
      p.program_weights({&v, 1}, a, cells, {&crw, 1});
      EXPECT_EQ(crw, p.program(v, b));
      EXPECT_EQ(rdo::oracle::compose(cell, cells), crw);
    }
    EXPECT_EQ(a.engine()(), b.engine()());
  }
}

TEST(Programmer, ProgramWeightsRejectsOutOfRangeCtwsAndMismatchedSpans) {
  WeightProgrammer p(kMlc, 8, {0.5, 0.0});
  Rng rng(5);
  std::vector<double> crw(3);
  std::vector<double> cells(3 * 4);
  for (int bad : {-1, 256, 1 << 20}) {
    const std::vector<int> ctw = {3, bad, 7};
    EXPECT_THROW(p.program_weights(ctw, rng, cells, crw),
                 rdo::core::ContractViolation)
        << bad;
    EXPECT_THROW(p.program_weights(ctw, rng, {}, crw),
                 rdo::core::ContractViolation)
        << bad;
  }
  const std::vector<int> ctw = {3, 255, 7};
  std::vector<double> short_crw(2);
  std::vector<double> short_cells(3 * 4 - 1);
  EXPECT_THROW(p.program_weights(ctw, rng, cells, short_crw),
               rdo::core::ContractViolation);
  EXPECT_THROW(p.program_weights(ctw, rng, short_cells, crw),
               rdo::core::ContractViolation);
}

TEST(Programmer, SliceLsbFirstSlc) {
  WeightProgrammer p(kSlc, 8, {0.5, 0.0});
  const auto s = p.slice(0b10110001);
  ASSERT_EQ(s.size(), 8u);
  EXPECT_EQ(s[0], 1);
  EXPECT_EQ(s[1], 0);
  EXPECT_EQ(s[4], 1);
  EXPECT_EQ(s[7], 1);
}

TEST(Programmer, SliceLsbFirstMlc) {
  WeightProgrammer p(kMlc, 8, {0.5, 0.0});
  const auto s = p.slice(0xB4);  // 10 11 01 00 -> cells LSB-first: 0,1,3,2
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0], 0);
  EXPECT_EQ(s[1], 1);
  EXPECT_EQ(s[2], 3);
  EXPECT_EQ(s[3], 2);
  // The allocation-free form programming slices with: the same order,
  // and entries past cells_per_weight() zero.
  const auto a = p.slice_states(0x1B);  // 00 01 10 11 -> 3,2,1,0
  EXPECT_EQ(a[0], 3);
  EXPECT_EQ(a[1], 2);
  EXPECT_EQ(a[2], 1);
  EXPECT_EQ(a[3], 0);
  for (std::size_t k = 4; k < a.size(); ++k) EXPECT_EQ(a[k], 0) << k;
}

TEST(Programmer, SliceRejectsOutOfRange) {
  WeightProgrammer p(kSlc, 8, {0.5, 0.0});
  EXPECT_THROW(p.slice(-1), std::invalid_argument);
  EXPECT_THROW(p.slice(256), std::invalid_argument);
}

TEST(Programmer, SliceComposeRoundTripIdeal) {
  for (const CellModel& cell : {kSlc, kMlc}) {
    WeightProgrammer p(cell, 8, {0.0, 0.0});
    for (int v = 0; v <= 255; v += 13) {
      const auto states = p.slice(v);
      std::vector<double> vals(states.size());
      for (std::size_t k = 0; k < states.size(); ++k) {
        vals[k] = cell.read_value(states[k], 1.0);
      }
      EXPECT_NEAR(rdo::oracle::compose(cell, vals), static_cast<double>(v),
                  1e-9);
    }
  }
}

TEST(Programmer, ZeroSigmaProgramIsExact) {
  WeightProgrammer p(kMlc, 8, {0.0, 0.0});
  Rng rng(1);
  for (int v : {0, 1, 100, 200, 255}) {
    EXPECT_NEAR(p.program(v, rng), static_cast<double>(v), 1e-9);
  }
}

TEST(Programmer, ProgramMomentsMatchAnalytic) {
  WeightProgrammer p(kSlc, 8, {0.5, 0.0});
  Rng rng(2);
  for (int v : {37, 128, 255}) {
    const int n = 20000;
    double sum = 0.0, sum2 = 0.0;
    for (int i = 0; i < n; ++i) {
      const double x = p.program(v, rng);
      sum += x;
      sum2 += x * x;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, p.analytic_mean(v),
                0.02 * std::max(1.0, p.analytic_mean(v)));
    EXPECT_NEAR(var, p.analytic_var(v), 0.1 * p.analytic_var(v) + 0.5);
  }
}

TEST(Programmer, AnalyticMeanIsAffineInV) {
  // E[R(v)] = M v + const: check three collinear points.
  WeightProgrammer p(kMlc, 8, {0.7, 0.0});
  const double d1 = p.analytic_mean(100) - p.analytic_mean(50);
  const double d2 = p.analytic_mean(150) - p.analytic_mean(100);
  EXPECT_NEAR(d1, d2, 1e-9);
  EXPECT_NEAR(d1 / 50.0, (VariationModel{0.7, 0.0}).mean_factor(), 1e-9);
}

TEST(Programmer, VarianceDependsOnBitPatternNotMagnitude) {
  // Var[R(128)] (single MSB device) must exceed Var[R(127)] (7 low
  // devices) — the effect VAWO exploits to prefer low-bit-heavy CTWs.
  WeightProgrammer p(kSlc, 8, {0.5, 0.0});
  EXPECT_GT(p.analytic_var(128), p.analytic_var(127));
}

TEST(Programmer, HigherSigmaRaisesVariance) {
  WeightProgrammer lo(kSlc, 8, {0.2, 0.0});
  WeightProgrammer hi(kSlc, 8, {1.0, 0.0});
  for (int v : {10, 100, 250}) {
    EXPECT_GT(hi.analytic_var(v), lo.analytic_var(v));
  }
}

TEST(Programmer, ProgramWithDdvUsesPersistentComponent) {
  // Pure DDV (ddv_fraction = 1): repeated cycles with fixed thetas give
  // identical CRWs.
  WeightProgrammer p(kSlc, 8, {0.5, 1.0});
  Rng rng(3);
  std::vector<double> ddv(static_cast<std::size_t>(p.cells_per_weight()));
  for (auto& t : ddv) t = p.variation().sample_ddv_theta(rng);
  const double a = p.program_with_ddv(200, ddv, rng);
  const double b = p.program_with_ddv(200, ddv, rng);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Programmer, ProgramWithDdvCcvVariesAcrossCycles) {
  WeightProgrammer p(kSlc, 8, {0.5, 0.5});
  Rng rng(4);
  std::vector<double> ddv(static_cast<std::size_t>(p.cells_per_weight()));
  for (auto& t : ddv) t = p.variation().sample_ddv_theta(rng);
  const double a = p.program_with_ddv(200, ddv, rng);
  const double b = p.program_with_ddv(200, ddv, rng);
  EXPECT_NE(a, b);
}

TEST(Programmer, ProgramWithDdvRejectsWrongThetaCount) {
  WeightProgrammer p(kSlc, 8, {0.5, 0.5});
  Rng rng(5);
  std::vector<double> ddv(3);
  EXPECT_THROW((void)p.program_with_ddv(10, ddv, rng), std::invalid_argument);
}

TEST(Programmer, StuckAtHrsPullsReadbackDown) {
  WeightProgrammer healthy(kSlc, 8, {0.0, 0.0});
  WeightProgrammer faulty(kSlc, 8, {0.0, 0.0}, {0.5, 0.0});
  Rng rng(60);
  double healthy_sum = 0.0, faulty_sum = 0.0;
  for (int i = 0; i < 500; ++i) {
    healthy_sum += healthy.program(255, rng);
    faulty_sum += faulty.program(255, rng);
  }
  EXPECT_NEAR(healthy_sum / 500.0, 255.0, 1e-9);
  // Half the cells stuck at HRS: expect roughly half the value.
  EXPECT_NEAR(faulty_sum / 500.0, 127.5, 15.0);
}

TEST(Programmer, StuckAtLrsPushesReadbackUp) {
  WeightProgrammer faulty(kSlc, 8, {0.0, 0.0}, {0.0, 0.5});
  Rng rng(61);
  double sum = 0.0;
  for (int i = 0; i < 500; ++i) sum += faulty.program(0, rng);
  EXPECT_GT(sum / 500.0, 100.0);  // ~half the cells read the top state
}

TEST(Programmer, StuckCellsHaveNoVariation) {
  // All cells stuck: readback is exact and repeatable despite sigma.
  WeightProgrammer faulty(kSlc, 8, {1.0, 0.0}, {1.0, 0.0});
  Rng rng(62);
  const double a = faulty.program(170, rng);
  const double b = faulty.program(170, rng);
  EXPECT_DOUBLE_EQ(a, 0.0);  // every cell stuck at HRS
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Programmer, FaultRatesCapturedByStatisticalLut) {
  // The LUT protocol measures the same (simulated) devices, so a fault
  // rate shifts E[R(v)] down for high targets — making VAWO fault-aware.
  WeightProgrammer healthy(kSlc, 8, {0.3, 0.0});
  WeightProgrammer faulty(kSlc, 8, {0.3, 0.0}, {0.2, 0.0});
  const RLut lut_h = RLut::build(healthy, 16, 16, Rng(63));
  const RLut lut_f = RLut::build(faulty, 16, 16, Rng(63));
  EXPECT_LT(lut_f.mean(255), lut_h.mean(255) * 0.95);
}

class ProgrammerCellSweep
    : public ::testing::TestWithParam<std::tuple<CellKind, double>> {};

TEST_P(ProgrammerCellSweep, MeanFollowsAnalyticAcrossRange) {
  const auto [kind, sigma] = GetParam();
  WeightProgrammer p({kind, 200.0}, 8, {sigma, 0.0});
  Rng rng(6);
  for (int v = 0; v <= 255; v += 51) {
    const int n = 4000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += p.program(v, rng);
    EXPECT_NEAR(sum / n, p.analytic_mean(v),
                0.05 * std::max(2.0, p.analytic_mean(v)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    CellsAndSigmas, ProgrammerCellSweep,
    ::testing::Combine(::testing::Values(CellKind::SLC, CellKind::MLC2),
                       ::testing::Values(0.2, 0.5, 1.0)));
