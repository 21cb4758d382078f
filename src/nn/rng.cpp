#include "nn/rng.h"

#include <algorithm>

namespace rdo::nn {

namespace {

constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ull;

/// Words of the first block seeded and twisted per lazy refill. Chunks are
/// capped at word 156, where the lazy phase ends.
constexpr std::size_t kChunk = 16;

/// The twist without a branch: `0 - (y & 1)` is all ones exactly when the
/// low bit is set, so the mask selects kMatrixA. A conditional here
/// compiles to a jump on a random bit, mispredicted half the time.
std::uint64_t twisted(std::uint64_t hi_word, std::uint64_t lo_word,
                      std::uint64_t far_word) {
  const std::uint64_t y = (hi_word & kUpperMask) | (lo_word & kLowerMask);
  return far_word ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

void Mt19937_64::seed_through(std::size_t end) {
  for (std::size_t i = seeded_; i < end; ++i) {
    const std::uint64_t prev = x_[i - 1];
    x_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
  }
  seeded_ = std::max(seeded_, end);
}

void Mt19937_64::twist_first_half(std::size_t lo, std::size_t hi) {
  for (std::size_t k = lo; k < hi; ++k) {
    x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM]);
  }
}

void Mt19937_64::twist_second_half() {
  for (std::size_t k = kM; k < kN - 1; ++k) {
    x_[k] = twisted(x_[k], x_[k + 1], x_[k - kM]);
  }
  x_[kN - 1] = twisted(x_[kN - 1], x_[0], x_[kM - 1]);
}

void Mt19937_64::refill() {
  if (avail_ == kN) {
    twist_first_half(0, kM);
    twist_second_half();
    p_ = 0;
  } else if (avail_ < kM) {
    const std::size_t hi = std::min(avail_ + kChunk, kM);
    seed_through(hi + kM);
    twist_first_half(avail_, hi);
    avail_ = hi;
  } else {
    seed_through(kN);
    twist_second_half();
    avail_ = kN;
  }
}

}  // namespace rdo::nn
