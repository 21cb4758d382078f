// Log-normal variation model statistics and RNG determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "rram/variation.h"

using rdo::nn::Rng;
using rdo::rram::VariationModel;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.normal(), b.normal());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 5; ++i) {
    if (a.normal() != b.normal()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, SplitIsDeterministicAndIndependent) {
  Rng a(7);
  Rng c1 = a.split(3), c2 = a.split(3), c3 = a.split(4);
  EXPECT_DOUBLE_EQ(c1.normal(), c2.normal());
  Rng c1b = Rng(7).split(3);
  EXPECT_EQ(c1.seed(), c1b.seed());
  EXPECT_NE(c1.seed(), c3.seed());
}

TEST(Rng, NormalWithZeroStddevReturnsMeanAndAdvancesLikeUnitStddev) {
  Rng a(21), b(21);
  EXPECT_EQ(a.normal(2.5, 0.0), 2.5);
  (void)b.normal(2.5, 1.0);
  EXPECT_EQ(a.engine()(), b.engine()());
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
  }
}

// Rng's engine is an in-repo MT19937-64 with a lazily filled first
// block; std::mt19937_64 is its oracle. The lengths straddle the lazy
// chunk boundaries, word 156 (where the lazy phase ends), the block end
// (312) and later full twists.
namespace {

constexpr std::uint64_t kOracleSeeds[] = {0, 1, 5489, ~std::uint64_t{0}};
constexpr std::size_t kOracleLengths[] = {1,   155, 156, 157,
                                          311, 312, 313, 10000};

/// Seeds of child streams, as the LUT and the backends derive them.
std::vector<std::uint64_t> split_seeds() {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t salt : {0ull, 1ull, 1000003ull, 255000780ull}) {
    seeds.push_back(Rng(2021).split(salt).seed());
  }
  return seeds;
}

void expect_raw_stream_matches(std::uint64_t seed, std::size_t length) {
  Rng rng(seed);
  std::mt19937_64 oracle(seed);
  for (std::size_t i = 0; i < length; ++i) {
    ASSERT_EQ(rng.engine()(), oracle()) << "seed " << seed << " draw " << i;
  }
}

}  // namespace

TEST(Rng, EngineMatchesStdMt19937_64) {
  std::vector<std::uint64_t> seeds(std::begin(kOracleSeeds),
                                   std::end(kOracleSeeds));
  for (std::uint64_t s : split_seeds()) seeds.push_back(s);
  for (std::uint64_t seed : seeds) {
    for (std::size_t length : kOracleLengths) {
      expect_raw_stream_matches(seed, length);
    }
  }
}

TEST(Rng, EngineRangeMatchesStdMt19937_64) {
  using Engine = rdo::nn::Mt19937_64;
  static_assert(std::uniform_random_bit_generator<Engine>);
  EXPECT_EQ(Engine::min(), std::mt19937_64::min());
  EXPECT_EQ(Engine::max(), std::mt19937_64::max());
}

TEST(Rng, EngineMeetsStandardCheckValue) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 (seed 5489) produces this value.
  Rng rng(std::mt19937_64::default_seed);
  std::uint64_t x = 0;
  for (int i = 0; i < 10000; ++i) x = rng.engine()();
  EXPECT_EQ(x, 9981545732273789042ull);
}

// Rng::normal and Rng::uniform are libstdc++'s algorithms written out
// (nn::draw), so std::normal_distribution, std::uniform_real_distribution
// and std::generate_canonical under libstdc++ are their oracle. Other
// standard libraries use other algorithms.
#ifdef __GLIBCXX__

namespace {

/// A URBG that emits a given list of words, so each draw's edge cases
/// can be hit on purpose.
struct ScriptedUrbg {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  std::vector<result_type> words;
  std::size_t next = 0;
  result_type operator()() { return words.at(next++); }
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;
constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
constexpr std::uint64_t kTop = ~std::uint64_t{0};

/// Words at the rounding edges of u * 2^-64: exact small values, the
/// 53-bit boundary, the top bit, ties, and every value around 2^64 - 1024
/// (from there up, u rounds to 2^64 and the draw is clamped below 1).
std::vector<std::uint64_t> edge_words() {
  std::vector<std::uint64_t> w = {0,
                                  1,
                                  2,
                                  2047,
                                  2048,
                                  kTwo53 - 1,
                                  kTwo53,
                                  kTwo53 + 1,
                                  kTwo63 - 1,
                                  kTwo63,
                                  kTwo63 + 1,
                                  kTwo63 + 1024,
                                  kTwo63 + 1025,
                                  kTwo63 + 3072,
                                  0x123456789ABCDEF0ull};
  for (std::uint64_t d : {0, 1, 2, 1022, 1023, 1024, 1025, 2047, 2048, 2049}) {
    w.push_back(kTop - d);
  }
  return w;
}

}  // namespace

TEST(RngDraw, CanonicalMatchesGenerateCanonical) {
  for (std::uint64_t u : edge_words()) {
    ScriptedUrbg a{{u}}, b{{u}};
    const double got = rdo::nn::draw::canonical(a);
    const double want = std::generate_canonical<double, 53>(b);
    EXPECT_EQ(bits(got), bits(want)) << "u " << u;
    EXPECT_LT(got, 1.0) << "u " << u;
    EXPECT_EQ(a.next, 1u);
  }
}

TEST(RngDraw, CanonicalClampsWordsThatRoundToOne) {
  const double below_one = std::nextafter(1.0, 0.0);
  // 2^64 - 1024 is the tie between 2^64 - 2048 and 2^64; it rounds to
  // even, 2^64, and so does every larger word.
  for (std::uint64_t u : {kTop - 1023, kTop - 1000, kTop}) {
    ScriptedUrbg g{{u}};
    EXPECT_EQ(bits(rdo::nn::draw::canonical(g)), bits(below_one)) << u;
  }
  // One below the tie rounds down to 2^64 - 2048: the same value, reached
  // without the clamp.
  ScriptedUrbg g{{kTop - 1024}};
  EXPECT_EQ(bits(rdo::nn::draw::canonical(g)), bits(below_one));
  ScriptedUrbg zero{{0}};
  EXPECT_EQ(bits(rdo::nn::draw::canonical(zero)), bits(0.0));
}

TEST(RngDraw, UniformMatchesStdUniformRealDistribution) {
  const std::pair<double, double> ranges[] = {
      {0.0, 1.0}, {-2.0, 3.0}, {1e-3, 1e-3 + 1e-12}, {-1e9, 1e9}, {5.0, 5.0}};
  for (const auto& [lo, hi] : ranges) {
    for (std::uint64_t u : edge_words()) {
      ScriptedUrbg a{{u}}, b{{u}};
      std::uniform_real_distribution<double> d(lo, hi);
      EXPECT_EQ(bits(rdo::nn::draw::uniform(a, lo, hi)), bits(d(b)))
          << "u " << u << " range [" << lo << ", " << hi << ")";
    }
  }
}

TEST(RngDraw, NormalMatchesStdNormalDistributionThroughRejections) {
  // Word pairs give x = 2c - 1 and y: (0, 0) is x = y = -1, r2 = 2 > 1;
  // (2^63, 2^63) is x = y = 0, r2 == 0; (2^64-1, 2^64-1) is the clamped
  // c on both, r2 just under 2; all three are rejected before the pair
  // that is used.
  const std::vector<std::uint64_t> script = {
      0,    0,    kTwo63, kTwo63, kTop, kTop, kTwo63 + (kTwo63 >> 1),
      kTwo63 - (kTwo63 >> 2)};
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {2.5, 3.0}, {-1.0, 0.0}, {-0.0, 1.0}};
  for (const auto& [mean, sd] : params) {
    ScriptedUrbg a{script}, b{script};
    std::normal_distribution<double> d;
    EXPECT_EQ(bits(rdo::nn::draw::normal(a, mean, sd)), bits(d(b) * sd + mean))
        << mean << " " << sd;
    EXPECT_EQ(a.next, script.size());
    EXPECT_EQ(b.next, script.size());
  }
}

TEST(RngDraw, NormalOfRadiusOneKeepsStdSignOfZero) {
  // (0, 2^63) is x = -1, y = 0: r2 == 1, so log(r2) is 0, mult is -0.0
  // and y * mult is -0.0. The default std::normal_distribution adds its
  // mean 0 and returns +0.0; draw::normal does the same before scaling,
  // which a mean of -0.0 makes visible.
  const std::vector<std::uint64_t> script = {0, kTwo63};
  ScriptedUrbg z{script};
  EXPECT_EQ(bits(rdo::nn::draw::standard_normal(z)), bits(-0.0));
  for (const double mean : {0.0, -0.0, 1.0}) {
    ScriptedUrbg a{script}, b{script};
    std::normal_distribution<double> d;
    EXPECT_EQ(bits(rdo::nn::draw::normal(a, mean, 1.0)),
              bits(d(b) * 1.0 + mean))
        << mean;
  }
}

TEST(Rng, NormalMatchesStdDistributionStream) {
  // Rng::normal(mean, sd) = z * sd + mean is bit-identical to a
  // std::normal_distribution(mean, sd) over the same engine.
  Rng a(13);
  std::mt19937_64 engine(13);
  for (int i = 0; i < 100; ++i) {
    const double mean = 0.1 * i - 3.0, sd = 0.01 + 0.05 * i;
    std::normal_distribution<double> d(mean, sd);
    EXPECT_EQ(a.normal(mean, sd), d(engine));
  }
}

TEST(Rng, DistributionsMatchStdOverStdEngine) {
  for (std::uint64_t seed : split_seeds()) {
    Rng rng(seed);
    std::mt19937_64 oracle(seed);
    std::uniform_real_distribution<double> uniform(-2.0, 3.0);
    std::uniform_int_distribution<std::int64_t> uniform_int(-7, 1000);
    // Interleaved so that every distribution runs across the lazy phase,
    // word 156 and the first full twist. Each Rng::normal call draws a
    // polar pair and returns its y value, as a fresh
    // std::normal_distribution per call does (the x value a kept
    // distribution would cache is dropped).
    for (int i = 0; i < 400; ++i) {
      std::normal_distribution<double> normal;
      ASSERT_EQ(rng.normal(), normal(oracle)) << "draw " << i;
      ASSERT_EQ(rng.uniform(-2.0, 3.0), uniform(oracle)) << "draw " << i;
      ASSERT_EQ(rng.uniform_int(-7, 1000), uniform_int(oracle))
          << "draw " << i;
    }
  }
}

#endif  // __GLIBCXX__

TEST(Rng, ShuffleMatchesStdOverStdEngine) {
  for (std::size_t n : {1u, 10u, 157u, 1000u}) {
    std::vector<int> a(n), b(n);
    std::iota(a.begin(), a.end(), 0);
    std::iota(b.begin(), b.end(), 0);
    Rng rng(77);
    std::mt19937_64 oracle(77);
    for (int round = 0; round < 3; ++round) {
      std::shuffle(a.begin(), a.end(), rng.engine());
      std::shuffle(b.begin(), b.end(), oracle);
      ASSERT_EQ(a, b) << "n " << n << " round " << round;
    }
  }
}

TEST(Rng, CopyInLazyPhaseContinuesBothStreams) {
  for (std::size_t taken : {0u, 1u, 15u, 16u, 17u, 100u, 155u, 156u}) {
    Rng original(5489);
    std::mt19937_64 oracle(5489);
    for (std::size_t i = 0; i < taken; ++i) {
      ASSERT_EQ(original.engine()(), oracle());
    }
    Rng copy = original;
    std::mt19937_64 oracle_copy = oracle;
    for (int i = 0; i < 700; ++i) {
      ASSERT_EQ(original.engine()(), oracle()) << "taken " << taken;
    }
    for (int i = 0; i < 700; ++i) {
      ASSERT_EQ(copy.engine()(), oracle_copy()) << "taken " << taken;
    }
  }
}

TEST(VariationModel, ClosedFormMoments) {
  VariationModel v{0.5, 0.0};
  EXPECT_NEAR(v.mean_factor(), std::exp(0.125), 1e-12);
  const double s2 = 0.25;
  EXPECT_NEAR(v.var_factor(), (std::exp(s2) - 1.0) * std::exp(s2), 1e-12);
}

TEST(VariationModel, SampleMomentsMatchClosedForm) {
  VariationModel v{0.5, 0.0};
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double f = v.sample_factor(rng);
    sum += f;
    sum2 += f * f;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, v.mean_factor(), 0.02);
  EXPECT_NEAR(var, v.var_factor(), 0.05);
}

TEST(VariationModel, ZeroSigmaIsDeterministicUnity) {
  VariationModel v{0.0, 0.0};
  Rng rng(12);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(v.sample_factor(rng), 1.0);
  }
  EXPECT_DOUBLE_EQ(v.mean_factor(), 1.0);
  EXPECT_DOUBLE_EQ(v.var_factor(), 0.0);
}

TEST(VariationModel, DdvSplitPreservesTotalVariance) {
  VariationModel v{0.6, 0.4};
  const double total = v.sigma_ddv() * v.sigma_ddv() +
                       v.sigma_ccv() * v.sigma_ccv();
  EXPECT_NEAR(total, 0.36, 1e-12);
}

TEST(VariationModel, PureDdvHasNoCcv) {
  VariationModel v{0.5, 1.0};
  Rng rng(13);
  EXPECT_DOUBLE_EQ(v.sigma_ccv(), 0.0);
  EXPECT_DOUBLE_EQ(v.sample_ccv_theta(rng), 0.0);
}

TEST(VariationModel, DdvComponentStatistics) {
  VariationModel v{0.5, 0.5};
  Rng rng(14);
  const int n = 100000;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double t = v.sample_ddv_theta(rng);
    sum2 += t * t;
  }
  EXPECT_NEAR(sum2 / n, 0.125, 0.01);  // variance = 0.5 * 0.25
}

class VariationSigmaSweep : public ::testing::TestWithParam<double> {};

TEST_P(VariationSigmaSweep, MeanFactorGrowsWithSigma) {
  const double sigma = GetParam();
  VariationModel v{sigma, 0.0};
  EXPECT_GE(v.mean_factor(), 1.0);
  Rng rng(15);
  // Empirical median should be near 1 (log-normal median = 1).
  int below = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (v.sample_factor(rng) < 1.0) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / n, 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, VariationSigmaSweep,
                         ::testing::Values(0.2, 0.5, 0.8, 1.0));
