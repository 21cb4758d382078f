#include "rram/crossbar.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

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
}

namespace {

/// Two doubles in one SIMD register (GCC and Clang vector extensions).
using D2 = double __attribute__((vector_size(16)));

/// Column tile of the batched VMM: kTileV registers of two columns.
constexpr int kTileV = 8;
constexpr std::size_t kTile = 2 * kTileV;

/// out[j] = sum over t < count of xv[t] * row[t][c0 + j] for j < kTile,
/// each sum starting at +0.0 and taking its terms in ascending t.
void tile_sums(const double* const* row, const double* xv, int count,
               std::size_t c0, double* out) {
  D2 acc[kTileV] = {};
  for (int t = 0; t < count; ++t) {
    const D2 xx = {xv[t], xv[t]};
    for (int v = 0; v < kTileV; ++v) {
      D2 g;
      std::memcpy(&g, row[t] + c0 + 2 * v, sizeof g);
      acc[v] += xx * g;
    }
  }
  std::memcpy(out, acc, sizeof acc);
}

/// The same sums, scalar, for a last tile narrower than kTile.
void tail_sums(const double* const* row, const double* xv, int count,
               std::size_t c0, std::size_t width, double* out) {
  std::fill(out, out + width, 0.0);
  for (int t = 0; t < count; ++t) {
    for (std::size_t j = 0; j < width; ++j) out[j] += xv[t] * row[t][c0 + j];
  }
}

}  // namespace

void Crossbar::vmm_rows(CellWindow g, std::span<const double> x,
                        std::int64_t n, int r0, int r1,
                        std::span<double> y) const {
  const auto rows = static_cast<std::size_t>(cfg_.rows);
  const auto cols = static_cast<std::size_t>(g.width);
  RDO_CHECK(g.at != nullptr && g.width > 0 && g.width <= cfg_.cols &&
                g.stride >= cols,
            "Crossbar::vmm_rows: a window of " + std::to_string(g.width) +
                " bitlines at row stride " + std::to_string(g.stride) +
                " on a " + std::to_string(cfg_.cols) + "-column array");
  RDO_CHECK(n >= 0 && x.size() == static_cast<std::size_t>(n) * rows,
            "Crossbar::vmm: input length " + std::to_string(x.size()) +
                " for " + std::to_string(n) + " x " +
                std::to_string(cfg_.rows) + " rows");
  RDO_CHECK(y.size() == static_cast<std::size_t>(n) * cols,
            "Crossbar::vmm: output length " + std::to_string(y.size()) +
                " for " + std::to_string(n) + " x " +
                std::to_string(g.width) + " columns");
  RDO_CHECK(r0 >= 0 && r1 <= cfg_.rows && r0 % cfg_.active_wordlines == 0,
            "Crossbar::vmm_rows: bad row range [" + std::to_string(r0) +
                ", " + std::to_string(r1) + ")");
  std::fill(y.begin(), y.end(), 0.0);
  // The driven wordlines of one (group, sample): their conductance rows
  // and input values, zero inputs left out.
  std::vector<const double*> live_row(
      static_cast<std::size_t>(cfg_.active_wordlines));
  std::vector<double> live_x(live_row.size());
  double partial[kTile];
  for (int g0 = r0; g0 < r1; g0 += cfg_.active_wordlines) {
    const int g1 = std::min(r1, g0 + cfg_.active_wordlines);
    for (std::int64_t s = 0; s < n; ++s) {
      const double* xs = x.data() + static_cast<std::size_t>(s) * rows;
      double* ys = y.data() + static_cast<std::size_t>(s) * cols;
      int live = 0;
      for (int r = g0; r < g1; ++r) {
        if (xs[r] == 0.0) continue;
        live_row[static_cast<std::size_t>(live)] =
            g.at + static_cast<std::size_t>(r) * g.stride;
        live_x[static_cast<std::size_t>(live)] = xs[r];
        ++live;
      }
      // No driven wordline: every group sum is +0.0, and adding +0.0
      // leaves y unchanged.
      if (live == 0) continue;
      for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
        const std::size_t width = std::min(kTile, cols - c0);
        if (width == kTile) {
          tile_sums(live_row.data(), live_x.data(), live, c0, partial);
        } else {
          tail_sums(live_row.data(), live_x.data(), live, c0, width,
                    partial);
        }
        for (std::size_t j = 0; j < width; ++j) ys[c0 + j] += partial[j];
      }
    }
  }
}

}  // namespace rdo::rram
