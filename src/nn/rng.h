// Deterministic random number generation for the whole project.
//
// Every stochastic component (weight init, dataset synthesis, device
// variation, Monte-Carlo LUT building) takes an explicit `Rng` or seed, so
// experiments are exactly reproducible.  No component may seed from the
// wall clock or from std::random_device.
//
// The engine is an in-repo MT19937-64 with a branch-free twist; it emits
// the words of std::mt19937_64. The real-valued distributions (`draw`)
// are libstdc++'s algorithms written out over one branch-free canonical
// draw, so with any standard library they give the values libstdc++'s
// std::uniform_real_distribution and std::normal_distribution give over
// the same engine. Those std types are their oracle in the tests.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>

namespace rdo::nn {

/// MT19937-64: the standard algorithm of [rand.eng.mers] with the
/// std::mt19937_64 parameters (same seed recurrence, twist and tempering),
/// so it emits exactly the outputs of a std::mt19937_64 seeded with the
/// same value.
///
/// The difference is cost: std::mt19937_64 seeds all 312 state words and
/// twists the whole block before its first output, while most streams of
/// this project (one per LUT device set, per programming cycle) draw a few
/// dozen values. This engine fills the first block lazily. First-block
/// output k < 156 depends only on the seeded words k, k+1 and k+156, so
/// words are seeded and twisted in chunks as outputs are drawn; at word
/// 156 the rest of the block is seeded and twisted as the standard does.
/// Every later block is a plain full twist. A draw is one compare on the
/// fast path, and the twist is branch-free: it selects the matrix word
/// with a mask of the low bit, not with a jump on that random bit.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) { x_[0] = seed; }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    if (p_ >= avail_) refill();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;  ///< state words per block
  static constexpr std::size_t kM = 156;  ///< twist distance

  /// Makes x_[p_] ready: the next lazy chunk of the first block, the rest
  /// of the first block, or a full twist.
  void refill();
  /// Extends the seed recurrence through word `end - 1`.
  void seed_through(std::size_t end);
  /// Twists words [lo, hi) of the first half (new x[k] from the seeded
  /// x[k], x[k+1] and x[k+156]).
  void twist_first_half(std::size_t lo, std::size_t hi);
  /// Twists words [156, 312) (new x[k] from seeded x[k], x[k+1] and the
  /// already twisted x[k-156]; the last word wraps to the new x[0]).
  void twist_second_half();

  // Value-initialised so that copying an engine in the lazy phase reads
  // no indeterminate word.
  std::array<result_type, kN> x_{};
  std::size_t p_ = 0;       ///< next word to emit
  std::size_t avail_ = 0;   ///< words [0, avail_) of the block are twisted
  std::size_t seeded_ = 1;  ///< words [0, seeded_) hold the seed recurrence
};

/// Real-valued draws over a 64-bit URBG (an engine with min() 0 and max()
/// 2^64 - 1), each exactly libstdc++'s algorithm.
namespace draw {

/// std::generate_canonical<double, 53>: one engine word u, u * 2^-64
/// rounded to nearest, and 1 - 2^-53 where that rounds up to 1 (u >=
/// 2^64 - 1024). The uint64 -> double conversion goes through two exact
/// signed conversions: a direct one branches on u's (random) top bit.
template <class Urbg>
double canonical(Urbg& g) {
  static_assert(Urbg::min() == 0 &&
                Urbg::max() == std::numeric_limits<std::uint64_t>::max());
  const std::uint64_t u = g();
  // (u >> 11) < 2^53 and (u & 2047) < 2^11 convert exactly; the sum
  // rounds once, as (double)u does.
  const double d =
      static_cast<double>(static_cast<std::int64_t>(u >> 11)) * 2048.0 +
      static_cast<double>(static_cast<std::int64_t>(u & 2047));
  return std::min(d * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// std::uniform_real_distribution<double>(lo, hi): c * (hi - lo) + lo.
template <class Urbg>
double uniform(Urbg& g, double lo, double hi) {
  return canonical(g) * (hi - lo) + lo;
}

/// A default std::normal_distribution<double>'s first value: the Marsaglia
/// polar method, rejecting r2 > 1 and r2 == 0, returning y * mult (the x
/// * mult that libstdc++ caches for the next call is dropped).
template <class Urbg>
double standard_normal(Urbg& g) {
  double x, y, r2;
  do {
    x = 2.0 * canonical(g) - 1.0;
    y = 2.0 * canonical(g) - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  return y * std::sqrt(-2.0 * std::log(r2) / r2);
}

/// N(mean, stddev^2) as a fresh default std::normal_distribution scaled
/// afterwards: z * 1 + 0 (its default parameters, which turn a -0.0 z
/// into +0.0), then * stddev + mean. Also defined for stddev == 0, which
/// std::normal_distribution's precondition excludes.
template <class Urbg>
double normal(Urbg& g, double mean, double stddev) {
  return (standard_normal(g) + 0.0) * stddev + mean;
}

}  // namespace draw

/// Seeded pseudo-random generator with the distributions used in this repo.
///
/// Wraps one Mt19937_64 (outputs identical to std::mt19937_64, so
/// uniform_int and std::shuffle give the same values as over the standard
/// engine) and supports deriving independent child streams
/// (`split`) so that, e.g., each programming cycle of a crossbar gets its
/// own stream derived from one master seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Derive an independent child stream. Deterministic in (seed, salt).
  [[nodiscard]] Rng split(std::uint64_t salt) const {
    // SplitMix64-style mixing of seed and salt.
    std::uint64_t z = seed_ + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z = z ^ (z >> 31);
    return Rng(z);
  }

  /// Normal sample N(mean, stddev^2) (see draw::normal); stddev may be 0.
  double normal(double mean = 0.0, double stddev = 1.0) {
    return draw::normal(engine_, mean, stddev);
  }

  /// Uniform real in [lo, hi) (see draw::uniform).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return draw::uniform(engine_, lo, hi);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
  }

  Mt19937_64& engine() { return engine_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  Mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace rdo::nn
