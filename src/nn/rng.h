// Deterministic random number generation for the whole project.
//
// Every stochastic component (weight init, dataset synthesis, device
// variation, Monte-Carlo LUT building) takes an explicit `Rng` or seed, so
// experiments are exactly reproducible.  No component may seed from the
// wall clock or from std::random_device.
#pragma once

#include <array>
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
/// fast path.
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

/// Seeded pseudo-random generator with the distributions used in this repo.
///
/// Wraps one Mt19937_64 (outputs identical to std::mt19937_64, so the
/// std distributions and std::shuffle give the same values as over the
/// standard engine) and supports deriving independent child streams
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

  /// Standard normal sample scaled to N(mean, stddev^2). Draws z ~ N(0,1)
  /// and returns z * stddev + mean, which is libstdc++'s own formula with
  /// the same engine draws, and also holds for stddev == 0 (a degenerate
  /// std::normal_distribution is a precondition violation).
  double normal(double mean = 0.0, double stddev = 1.0) {
    std::normal_distribution<double> d;
    return d(engine_) * stddev + mean;
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
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
