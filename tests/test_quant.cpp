// Weight quantization (NTW generation) and activation fake-quant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/check.h"
#include "nn/dense.h"
#include "quant/act_quant.h"
#include "quant/quantizer.h"

using namespace rdo::nn;
using namespace rdo::quant;

namespace {

Dense make_dense_with(const std::vector<float>& w, std::int64_t in,
                      std::int64_t out) {
  Rng rng(1);
  Dense d(in, out, rng);
  for (std::int64_t r = 0; r < in; ++r) {
    for (std::int64_t c = 0; c < out; ++c) {
      d.set_weight_at(r, c, w[static_cast<std::size_t>(r * out + c)]);
    }
  }
  return d;
}

}  // namespace

TEST(Quantizer, RoundTripErrorBoundedByHalfStep) {
  Rng rng(2);
  Dense d(16, 8, rng);
  const LayerQuant lq = quantize_matrix(d, 8);
  for (std::int64_t r = 0; r < 16; ++r) {
    for (std::int64_t c = 0; c < 8; ++c) {
      const float w = d.weight_at(r, c);
      const float deq = lq.dequant(static_cast<float>(lq.at(r, c)));
      EXPECT_LE(std::fabs(w - deq), 0.5f * lq.scale + 1e-6f);
    }
  }
}

TEST(Quantizer, IntegersWithinRange) {
  Rng rng(3);
  Dense d(32, 4, rng);
  const LayerQuant lq = quantize_matrix(d, 8);
  for (int v : lq.q) {
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 255);
  }
}

TEST(Quantizer, ZeroIsExactlyRepresentable) {
  const LayerQuant lq =
      quantize_matrix(make_dense_with({-1.0f, 0.0f, 0.5f, 1.0f}, 4, 1), 8);
  EXPECT_NEAR(lq.dequant(static_cast<float>(lq.zero)), 0.0f, 1e-7f);
}

TEST(Quantizer, ZeroPointIsAlwaysMidRange) {
  // Symmetric quantization: the ISAAC weight shift is exactly half the
  // integer range, so the near-zero weight cluster of any trained layer
  // sits at 2^(bits-1), within reach of the signed offset registers.
  const LayerQuant pos =
      quantize_matrix(make_dense_with({0.5f, 1.0f, 1.5f, 2.0f}, 4, 1), 8);
  EXPECT_EQ(pos.zero, 128);
  EXPECT_NEAR(pos.dequant(static_cast<float>(pos.at(3, 0))), 2.0f,
              pos.scale);
  const LayerQuant neg = quantize_matrix(
      make_dense_with({-2.0f, -1.5f, -1.0f, -0.5f}, 4, 1), 8);
  EXPECT_EQ(neg.zero, 128);
  EXPECT_NEAR(neg.dequant(static_cast<float>(neg.at(0, 0))), -2.0f,
              neg.scale);
}

TEST(Quantizer, SymmetricRangeCoversMaxAbs) {
  const LayerQuant lq =
      quantize_matrix(make_dense_with({-0.3f, 1.2f, 0.1f, -0.9f}, 4, 1), 8);
  EXPECT_NEAR(lq.scale * 127.0f, 1.2f, 0.02f);
}

TEST(Quantizer, FourBitMode) {
  Rng rng(4);
  Dense d(8, 8, rng);
  const LayerQuant lq = quantize_matrix(d, 4);
  EXPECT_EQ(lq.levels(), 15);
  for (int v : lq.q) EXPECT_LE(v, 15);
}

TEST(Quantizer, RejectsBadBits) {
  Rng rng(5);
  Dense d(2, 2, rng);
  EXPECT_THROW(quantize_matrix(d, 0), std::invalid_argument);
  EXPECT_THROW(quantize_matrix(d, 17), std::invalid_argument);
}

TEST(Quantizer, ApplyQuantizedWritesBack) {
  Rng rng(6);
  Dense d(4, 4, rng);
  const LayerQuant lq = quantize_matrix(d, 8);
  apply_quantized(d, lq);
  for (std::int64_t r = 0; r < 4; ++r) {
    for (std::int64_t c = 0; c < 4; ++c) {
      EXPECT_FLOAT_EQ(d.weight_at(r, c),
                      lq.dequant(static_cast<float>(lq.at(r, c))));
    }
  }
}

TEST(Quantizer, ConstantMatrixDoesNotBlowUp) {
  const LayerQuant lq =
      quantize_matrix(make_dense_with({0.0f, 0.0f, 0.0f, 0.0f}, 4, 1), 8);
  EXPECT_GT(lq.scale, 0.0f);
  EXPECT_NEAR(lq.dequant(static_cast<float>(lq.at(0, 0))), 0.0f, 1e-6f);
}

TEST(Quantizer, RejectsNonFiniteWeightNamingItsPosition) {
  // A NaN used to quantize to the zero point and an inf made the scale
  // inf, sending every weight of the layer to the zero point.
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (float v : bad) {
    std::vector<float> w(16 * 10, 0.25f);
    w[5 * 10 + 7] = v;  // row 5, column 7
    const Dense d = make_dense_with(w, 16, 10);
    try {
      (void)quantize_matrix(d, 8);
      ADD_FAILURE() << "no error for weight " << v;
    } catch (const rdo::core::ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("row 5, column 7"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(v)), std::string::npos) << what;
    }
  }
}

TEST(ActQuant, DisabledIsIdentity) {
  ActQuant aq(8);
  Tensor x({3});
  x[0] = 0.123f;
  x[1] = 4.567f;
  x[2] = 0.0f;
  Tensor y = aq.forward(x, false);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(ActQuant, ObservesMaxWhileDisabled) {
  ActQuant aq(8);
  Tensor x({2});
  x[0] = 1.0f;
  x[1] = 3.5f;
  (void)aq.forward(x, false);
  EXPECT_FLOAT_EQ(aq.observed_max(), 3.5f);
}

TEST(ActQuant, CalibratedSnapsToGrid) {
  ActQuant aq(8);
  aq.calibrate(255.0f);  // step = 1.0
  Tensor x({3});
  x[0] = 1.4f;
  x[1] = 1.6f;
  x[2] = 300.0f;  // above full scale -> clamp
  Tensor y = aq.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  EXPECT_FLOAT_EQ(y[2], 255.0f);
}

TEST(ActQuant, ClampsNegativeToZero) {
  ActQuant aq(8);
  aq.calibrate(255.0f);
  Tensor x({1});
  x[0] = -3.0f;
  Tensor y = aq.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
}

TEST(ActQuant, QuantizationErrorBoundedByHalfStep) {
  ActQuant aq(8);
  aq.calibrate(1.0f);
  const float step = 1.0f / 255.0f;
  Rng rng(7);
  Tensor x({100});
  for (std::int64_t i = 0; i < 100; ++i) {
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  Tensor y = aq.forward(x, false);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_LE(std::fabs(y[i] - x[i]), 0.5f * step + 1e-7f);
  }
}

namespace {

// Oracle: the std::round / std::clamp form of ActQuant::forward.
float act_quant_oracle(float x, float step, float levels) {
  float q = std::round(x / step);
  q = std::clamp(q, 0.0f, levels);
  return q * step;
}

}  // namespace

TEST(ActQuant, MatchesRoundAndClampOracleBitForBit) {
  // The branch-free rounding equals std::clamp(std::round(u), 0, levels)
  // for all 2^32 floats u (checked exhaustively once at 1, 4, 8, 16 and
  // 22 bits). This samples that domain: every 4099th bit pattern (NaNs,
  // infinities, denormals, both zeros included), and every float within
  // eight ulps of each half-integer tie and integer on the grid and
  // around it. With step = 1 the layer computes exactly the rounding.
  for (const int bits : {1, 8}) {
    const float levels = static_cast<float>((1 << bits) - 1);
    std::vector<float> u;
    for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 4099) {
      const auto b32 = static_cast<std::uint32_t>(b);
      float f = 0.0f;
      std::memcpy(&f, &b32, sizeof f);
      u.push_back(f);
    }
    for (float k = -3.0f; k <= levels + 3.0f; k += 0.5f) {
      float lo = k, hi = k;
      for (int i = 0; i < 8; ++i) {
        lo = std::nextafter(lo, -1e9f);
        hi = std::nextafter(hi, 1e9f);
        u.push_back(lo);
        u.push_back(hi);
      }
      u.push_back(k);
    }
    for (const float v : {-0.0f, 0.0f, std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN(),
                          -std::numeric_limits<float>::quiet_NaN()}) {
      u.push_back(v);
    }
    ActQuant aq(bits);
    aq.calibrate(levels);
    ASSERT_EQ(aq.step(), 1.0f);
    Tensor x({static_cast<std::int64_t>(u.size())});
    std::copy(u.begin(), u.end(), x.data());
    const Tensor y = aq.forward(x, false);
    std::int64_t mismatches = 0;
    for (std::int64_t i = 0; i < x.size(); ++i) {
      const float ref = act_quant_oracle(x[i], 1.0f, levels);
      const float got = y[i];
      if (std::memcmp(&ref, &got, sizeof ref) != 0 && ++mismatches <= 5) {
        ADD_FAILURE() << "bits " << bits << ": u = " << x[i] << " gave "
                      << got << ", oracle " << ref;
      }
    }
    EXPECT_EQ(mismatches, 0) << "bits " << bits;
  }
}

TEST(ActQuant, MatchesOracleAtACalibratedStep) {
  ActQuant aq(8);
  aq.calibrate(2.7f);
  const float levels = 255.0f;
  Rng rng(23);
  Tensor x({4096});
  for (std::int64_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-0.5, 3.5));
  }
  // Exact grid points and their half-steps too.
  for (std::int64_t i = 0; i < 512; ++i) {
    x[i] = aq.step() * (static_cast<float>(i) * 0.5f);
  }
  const Tensor y = aq.forward(x, false);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    const float ref = act_quant_oracle(x[i], aq.step(), levels);
    const float got = y[i];
    ASSERT_EQ(std::memcmp(&ref, &got, sizeof ref), 0) << "x = " << x[i];
  }
}

TEST(ActQuant, RejectsBitWidthsOutsideTheExactRange) {
  EXPECT_THROW(ActQuant(0), std::invalid_argument);
  EXPECT_THROW(ActQuant(23), std::invalid_argument);
  EXPECT_NO_THROW(ActQuant(22));
}

TEST(ActQuant, StraightThroughBackward) {
  ActQuant aq(8);
  aq.calibrate(1.0f);
  Tensor x({2});
  x[0] = 0.3f;
  x[1] = 0.7f;
  (void)aq.forward(x, false);
  Tensor g({2});
  g[0] = 1.5f;
  g[1] = -2.0f;
  Tensor gi = aq.backward(g);
  EXPECT_FLOAT_EQ(gi[0], 1.5f);
  EXPECT_FLOAT_EQ(gi[1], -2.0f);
}

TEST(ActQuant, DisableReenablesPassthrough) {
  ActQuant aq(8);
  aq.calibrate(1.0f);
  EXPECT_TRUE(aq.enabled());
  aq.disable();
  EXPECT_FALSE(aq.enabled());
  Tensor x({1});
  x[0] = 0.12345f;
  EXPECT_FLOAT_EQ(aq.forward(x, false)[0], 0.12345f);
}
