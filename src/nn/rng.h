// Deterministic random number generation for the whole project.
//
// Every stochastic component (weight init, dataset synthesis, device
// variation, Monte-Carlo LUT building) takes an explicit `Rng` or seed, so
// experiments are exactly reproducible.  No component may seed from the
// wall clock or from std::random_device.
#pragma once

#include <cstdint>
#include <random>

namespace rdo::nn {

/// Seeded pseudo-random generator with the distributions used in this repo.
///
/// A thin wrapper over std::mt19937_64 that also supports deriving
/// independent child streams (`split`) so that, e.g., each programming
/// cycle of a crossbar gets its own stream derived from one master seed.
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

  std::mt19937_64& engine() { return engine_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace rdo::nn
