#include "core/vawo.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "core/check.h"
#include "nn/kernel_isa.h"

namespace rdo::core {

namespace {

/// Gradient floor: weights whose mean gradient is numerically zero (dead
/// units, converged directions) would make the group objective identically
/// zero and leave the offset to tie-breaking, producing arbitrarily bad
/// CTWs for weights that still matter at inference time. Their |g| is
/// floored at this fraction of the layer's mean |g| (DESIGN.md §5, item 7).
constexpr double kGradFloorFrac = 0.05;

/// Four doubles in one vector (GCC and Clang vector extensions): one AVX
/// register, or two SSE2 registers on the baseline instruction set.
using D4 = double __attribute__((vector_size(32)));

constexpr int kBlock = VawoTable::kBlock;
constexpr int kBlockVecs = kBlock / 4;

/// Weights swept between two checks for dropping a block.
constexpr std::size_t kDropEvery = 4;

/// The one source body of both instruction-set copies of the block
/// sweep. Sums the objectives of the kBlock offsets j0 .. j0 + kBlock - 1
/// of one form over the group's n weights (targets `tau`, squared
/// gradient weights `g`) into `out`; each lane adds its terms in ascending
/// weight order with the oracle's expression shape (g * var, then
/// += g * bias * bias, then onto the sum; no fused multiply-add). Every
/// kDropEvery weights, if `may_drop` and every lane's running sum exceeds
/// `best`, it stops and returns false with `out` unwritten: the terms are
/// >= +0, so no final sum of the block could reach `best`.
///
/// With kBounds the same sums run over the table's block minima rows
/// instead, lane l of `out` becoming the lower bound of offset block
/// j0 + l: each term of a candidate is at least its block's bound term
/// (g >= 0, rounding is monotone, and (g * b) * b depends on |b| only),
/// and so is each partial sum.
template <bool kBounds>
[[gnu::always_inline]] inline bool sweep_block_body(
    const int* tau, const double* g, std::size_t n, const VawoTable& table,
    int j0, bool may_drop, double best, double* out) {
  D4 acc[kBlockVecs] = {};
  const D4 bound = {best, best, best, best};
  std::size_t t = 0;
  while (t < n) {
    const std::size_t stop = std::min(n, t + kDropEvery);
    for (; t < stop; ++t) {
      const double* vr = kBounds ? table.var_min_row(tau[t]) + j0
                                 : table.var_row(tau[t]) + j0;
      const double* br = kBounds ? table.abs_bias_min_row(tau[t]) + j0
                                 : table.bias_row(tau[t]) + j0;
      const D4 gg = {g[t], g[t], g[t], g[t]};
      for (int v = 0; v < kBlockVecs; ++v) {
        D4 var = {}, bias = {};
        std::memcpy(&var, vr + 4 * v, sizeof var);
        std::memcpy(&bias, br + 4 * v, sizeof bias);
        D4 term = gg * var;
        term += gg * bias * bias;
        acc[v] += term;
      }
    }
    if (may_drop && t < n) {
      auto above = acc[0] > bound;
      for (int v = 1; v < kBlockVecs; ++v) above &= acc[v] > bound;
      if (above[0] && above[1] && above[2] && above[3]) return false;
    }
  }
  std::memcpy(out, acc, sizeof acc);
  return true;
}

/// One instruction-set copy of the block sweep: kernel_isa() picks it.
using BlockFn = bool (*)(const int* tau, const double* g, std::size_t n,
                         const VawoTable& table, int j0, bool may_drop,
                         double best, double* out);

template <bool kBounds>
bool sweep_block_baseline(const int* tau, const double* g, std::size_t n,
                          const VawoTable& table, int j0, bool may_drop,
                          double best, double* out) {
  return sweep_block_body<kBounds>(tau, g, n, table, j0, may_drop, best,
                                   out);
}

#if RDO_NN_AVX_COPY
template <bool kBounds>
[[gnu::target("avx")]] bool sweep_block_avx(const int* tau, const double* g,
                                            std::size_t n,
                                            const VawoTable& table, int j0,
                                            bool may_drop, double best,
                                            double* out) {
  return sweep_block_body<kBounds>(tau, g, n, table, j0, may_drop, best,
                                   out);
}
#endif

/// The objective sweep and the bound sweep of one instruction set.
struct Sweeps {
  BlockFn costs;
  BlockFn bounds;
};

Sweeps sweeps_for([[maybe_unused]] rdo::nn::KernelIsa isa) {
#if RDO_NN_AVX_COPY
  if (isa == rdo::nn::KernelIsa::avx) {
    return {sweep_block_avx<false>, sweep_block_avx<true>};
  }
#endif
  return {sweep_block_baseline<false>, sweep_block_baseline<true>};
}

/// The pruned offset search (core/vawo.h, DESIGN.md section 5 item 3) of
/// the groups of one layer, with the scratch it reuses across them. Each
/// form's blocks are visited outward from the block of the previous
/// group's winner, that form first; the first group starts at the block
/// of offset 0 in the base form.
class GroupSearch {
 public:
  GroupSearch(Sweeps sweeps, const VawoTable& table, bool use_complement)
      : sweeps_(sweeps),
        table_(table),
        forms_(use_complement ? 2 : 1),
        blocks_(table.offset_count() / table.block_width()),
        bound_blocks_((blocks_ + kBlock - 1) / kBlock * kBlock),
        sums_(static_cast<std::size_t>(forms_ * blocks_ * kBlock)),
        bounds_(static_cast<std::size_t>(forms_ * bound_blocks_)),
        done_(static_cast<std::size_t>(forms_ * blocks_)),
        start_block_(table.offset_max() / kBlock) {}

  /// Solves one group of n weights with targets tau[0] (base form) and
  /// tau[1] (complement form, read only with use_complement) and squared
  /// gradient weights g >= 0. Returns the winning objective and sets the
  /// offset index j (b = offset_max - j) and form of the winner.
  double solve(const int* const tau[2], const double* g, std::size_t n,
               int& best_j, int& best_form) {
    const int width = table_.block_width();
    // Lanes past a register's offset count hold no candidate and could
    // keep a block alive; such a register has a single block per form.
    const bool may_drop = width == kBlock;
    std::fill(done_.begin(), done_.end(), std::uint8_t{0});
    double best = std::numeric_limits<double>::infinity();
    for (int f = 0; f < forms_; ++f) {
      const int form = f == 0 ? start_form_ : 1 - start_form_;
      double* bounds = bounds_.data() + form * bound_blocks_;
      bool bounded = false;
      int visited = 0;
      for (int step = 0; visited < blocks_; ++step) {
        const int k = step % 2 == 0 ? start_block_ + step / 2
                                    : start_block_ - (step + 1) / 2;
        if (k < 0 || k >= blocks_) continue;
        ++visited;
        if (best < std::numeric_limits<double>::infinity()) {
          if (!bounded) {
            for (int k0 = 0; k0 < blocks_; k0 += kBlock) {
              sweeps_.bounds(tau[form], g, n, table_, k0, false, best,
                             bounds + k0);
            }
            bounded = true;
          }
          if (bounds[k] > best) continue;
        }
        double* out = block_sums(form, k);
        if (!sweeps_.costs(tau[form], g, n, table_, k * kBlock, may_drop,
                           best, out)) {
          continue;
        }
        done_[static_cast<std::size_t>(form * blocks_ + k)] = 1;
        for (int l = 0; l < width; ++l) {
          if (out[l] < best) best = out[l];
        }
      }
    }
    // Winner scan over the finished blocks in the oracle's order:
    // form-major, offset b ascending (index j descending), strict <.
    double win = 0.0;
    bool found = false;
    for (int form = 0; form < forms_; ++form) {
      for (int k = blocks_ - 1; k >= 0; --k) {
        if (done_[static_cast<std::size_t>(form * blocks_ + k)] == 0) continue;
        const double* s = block_sums(form, k);
        for (int l = width - 1; l >= 0; --l) {
          if (!found || s[l] < win) {
            win = s[l];
            best_j = k * kBlock + l;
            best_form = form;
          }
          found = true;
        }
      }
    }
    RDO_CHECK(found, "vawo_solve_group: empty offset enumeration range");
    start_form_ = best_form;
    start_block_ = best_j / kBlock;
    return win;
  }

 private:
  double* block_sums(int form, int k) {
    return sums_.data() + static_cast<std::size_t>(form * blocks_ + k) *
                              static_cast<std::size_t>(kBlock);
  }

  Sweeps sweeps_;
  const VawoTable& table_;
  int forms_;
  int blocks_;
  int bound_blocks_;  ///< blocks_ rounded up to whole bound sweeps
  std::vector<double> sums_;        ///< [form][block][lane]
  std::vector<double> bounds_;      ///< [form][block]
  std::vector<std::uint8_t> done_;  ///< [form][block]: all weights summed
  int start_form_ = 0;
  int start_block_;
};

void check_group_shape(std::size_t ntw, std::size_t grad) {
  RDO_CHECK(ntw == grad && ntw != 0,
            "vawo_solve_group: " + std::to_string(ntw) + " weights vs " +
                std::to_string(grad) + " gradients");
}

/// The pruning needs every term >= +0, so a squared gradient weight must
/// not be negative. A +inf or NaN weight makes every candidate of its
/// group +inf or NaN, so the best stays +inf and nothing is pruned; the
/// winner is then the first enumerated candidate, as in the oracle.
void check_squared_gradient(double g2) {
  RDO_CHECK(!(g2 < 0.0), "vawo_solve_group: squared gradient weight " +
                             std::to_string(g2) + " is negative");
}

}  // namespace

VawoTable VawoTable::build(const rdo::rram::RLut& lut, int weight_levels,
                           const OffsetConfig& offsets, bool penalize_bias) {
  offsets.validate();
  RDO_CHECK(weight_levels >= 1,
            "VawoTable: weight_levels = " + std::to_string(weight_levels) +
                " < 1");
  VawoTable t;
  t.levels_ = weight_levels;
  t.bmin_ = offsets.offset_min();
  t.bmax_ = offsets.offset_max();
  t.penalize_bias_ = penalize_bias;
  // Target values span [0 - offset_max, weight_levels - offset_min]:
  // weight_levels + 2^offset_bits entries. Index idx holds target value
  // idx - offset_max, so the row of a weight with target_ntw = tau starts
  // at idx = tau (element j = cost of offset b = offset_max - j).
  const std::size_t size = static_cast<std::size_t>(weight_levels) +
                           static_cast<std::size_t>(t.bmax_ - t.bmin_ + 1);
  const std::size_t width = static_cast<std::size_t>(t.block_width());
  // A block reads kBlock entries of a row; pad past the last target
  // value when the register has fewer offsets than that.
  const std::size_t padded = size + static_cast<std::size_t>(kBlock) - width;
  t.ctw_.resize(size);
  t.var_.assign(padded, 0.0);
  t.bias_.assign(padded, 0.0);
  for (std::size_t idx = 0; idx < size; ++idx) {
    const double target_mean =
        static_cast<double>(static_cast<int>(idx) - t.bmax_);
    const int v = lut.invert_mean(target_mean);
    t.ctw_[idx] = v;
    t.var_[idx] = lut.var(v);
    RDO_CHECK(t.var_[idx] >= 0.0,
              "VawoTable: LUT variance of CTW " + std::to_string(v) +
                  " is negative or NaN");
    t.bias_[idx] = penalize_bias ? lut.mean(v) - target_mean : 0.0;
  }
  // Block minima, stored so that the blocks of one row are contiguous:
  // the block of row tau at offset index 16k starts at table index
  // idx = tau + 16k, kept at [idx % 16][idx / 16]. Every start a row can
  // read is in [0, size - width]; the rest, and the padding a whole bound
  // sweep reads past a row's last block, stay zero.
  const std::size_t blocks = static_cast<std::size_t>(t.offset_count()) / width;
  t.min_stride_ = static_cast<std::size_t>(weight_levels) / kBlock + 1 +
                  (blocks + kBlock - 1) / kBlock * kBlock;
  t.var_min_.assign(kBlock * t.min_stride_, 0.0);
  t.abs_bias_min_.assign(kBlock * t.min_stride_, 0.0);
  for (std::size_t idx = 0; idx + width <= size; ++idx) {
    double v = t.var_[idx], b = std::fabs(t.bias_[idx]);
    for (std::size_t k = 1; k < width; ++k) {
      v = std::min(v, t.var_[idx + k]);
      b = std::min(b, std::fabs(t.bias_[idx + k]));
    }
    const std::size_t at = idx % kBlock * t.min_stride_ + idx / kBlock;
    t.var_min_[at] = v;
    t.abs_bias_min_[at] = b;
  }
  return t;
}

namespace detail {

double vawo_solve_group(rdo::nn::KernelIsa isa, const std::vector<int>& ntw,
                        const std::vector<double>& g2, const VawoTable& table,
                        bool use_complement, int& best_offset,
                        bool& best_complemented, std::vector<int>& best_ctw) {
  check_group_shape(ntw.size(), g2.size());
  const int levels = table.weight_levels();
  for (int w : ntw) {
    RDO_CHECK(w >= 0 && w <= levels,
              "vawo_solve_group: NTW " + std::to_string(w) +
                  " outside [0, " + std::to_string(levels) + "]");
  }
  for (double g : g2) check_squared_gradient(g);
  std::vector<int> mirrored(ntw.size());
  for (std::size_t i = 0; i < ntw.size(); ++i) mirrored[i] = levels - ntw[i];
  const int* const tau[2] = {ntw.data(), mirrored.data()};
  GroupSearch search(sweeps_for(isa), table, use_complement);
  int j = 0, form = 0;
  const double obj = search.solve(tau, g2.data(), ntw.size(), j, form);
  best_offset = table.offset_max() - j;
  best_complemented = form == 1;
  best_ctw.resize(ntw.size());
  for (std::size_t i = 0; i < ntw.size(); ++i) {
    best_ctw[i] = table.ctw_row(tau[form][i])[j];
  }
  return obj;
}

VawoResult vawo_layer(rdo::nn::KernelIsa isa,
                      const rdo::quant::LayerQuant& lq,
                      const std::vector<double>& grads,
                      const VawoTable& table, const VawoOptions& opt) {
  const std::int64_t rows = lq.rows, cols = lq.cols;
  RDO_CHECK(grads.size() == static_cast<std::size_t>(rows * cols),
            "vawo_layer: " + std::to_string(grads.size()) +
                " gradients for a " + std::to_string(rows) + "x" +
                std::to_string(cols) + " matrix");
  opt.offsets.validate();
  RDO_CHECK(table.weight_levels() == lq.levels() &&
                table.offset_min() == opt.offsets.offset_min() &&
                table.offset_max() == opt.offsets.offset_max() &&
                table.penalize_bias() == opt.penalize_bias,
            "vawo_layer: VawoTable was built for a different LUT/offset "
            "configuration");
  // The table is indexed by NTW, so out-of-range quantized weights would
  // read past it. One pass up front keeps the hot loop check-free.
  const int levels = lq.levels();
  for (int w : lq.q) {
    RDO_CHECK(w >= 0 && w <= levels,
              "vawo_layer: NTW " + std::to_string(w) + " outside [0, " +
                  std::to_string(levels) + "]");
  }
  VawoResult res;
  res.groups_per_col = groups_per_column(rows, opt.offsets.m);
  res.ctw.assign(static_cast<std::size_t>(rows * cols), 0);
  res.offsets.assign(static_cast<std::size_t>(res.groups_per_col * cols),
                     0.0f);
  res.complemented.assign(static_cast<std::size_t>(res.groups_per_col * cols),
                          0);

  // Per-weight objective weights: |dL/dw| floored at kGradFloorFrac of the
  // layer mean (see the constant above; a gradient-free layer floors at
  // 1.0 so every weight still counts equally), squared here so the hot
  // loop never re-squares. They and both forms' targets are stored
  // column-major, so every group reads three contiguous runs.
  double mean_abs = 0.0;
  for (double g : grads) mean_abs += std::fabs(g);
  mean_abs /= static_cast<double>(grads.size());
  const double floor = mean_abs > 0.0 ? kGradFloorFrac * mean_abs : 1.0;
  const std::size_t count = grads.size();
  std::vector<double> g2(count);
  std::vector<int> base(count), mirrored(count);
  for (std::int64_t c = 0; c < cols; ++c) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::size_t src = static_cast<std::size_t>(r * cols + c);
      const std::size_t dst = static_cast<std::size_t>(c * rows + r);
      const double w = std::max(std::fabs(grads[src]), floor);
      g2[dst] = w * w;
      base[dst] = lq.q[src];
      mirrored[dst] = levels - lq.q[src];
    }
  }

  GroupSearch search(sweeps_for(isa), table, opt.use_complement);
  for (std::int64_t c = 0; c < cols; ++c) {
    for (std::int64_t g = 0; g < res.groups_per_col; ++g) {
      const std::int64_t r0 = g * opt.offsets.m;
      const std::int64_t r1 = std::min<std::int64_t>(rows, r0 + opt.offsets.m);
      const std::size_t at = static_cast<std::size_t>(c * rows + r0);
      const int* const tau[2] = {base.data() + at, mirrored.data() + at};
      int j = 0, form = 0;
      res.total_objective += search.solve(
          tau, g2.data() + at, static_cast<std::size_t>(r1 - r0), j, form);
      for (std::int64_t r = r0; r < r1; ++r) {
        res.ctw[static_cast<std::size_t>(r * cols + c)] =
            table.ctw_row(tau[form][r - r0])[j];
      }
      res.offsets[static_cast<std::size_t>(g * cols + c)] =
          static_cast<float>(table.offset_max() - j);
      res.complemented[static_cast<std::size_t>(g * cols + c)] =
          form == 1 ? 1 : 0;
    }
  }
  return res;
}

}  // namespace detail

double vawo_solve_group(const std::vector<int>& ntw,
                        const std::vector<double>& g2, const VawoTable& table,
                        bool use_complement, int& best_offset,
                        bool& best_complemented, std::vector<int>& best_ctw) {
  return detail::vawo_solve_group(rdo::nn::kernel_isa(), ntw, g2, table,
                                  use_complement, best_offset,
                                  best_complemented, best_ctw);
}

VawoResult vawo_layer(const rdo::quant::LayerQuant& lq,
                      const std::vector<double>& grads,
                      const VawoTable& table, const VawoOptions& opt) {
  return detail::vawo_layer(rdo::nn::kernel_isa(), lq, grads, table, opt);
}

VawoResult plain_layer(const rdo::quant::LayerQuant& lq, int m) {
  VawoResult res;
  res.groups_per_col = groups_per_column(lq.rows, m);
  res.ctw.assign(lq.q.begin(), lq.q.end());
  res.offsets.assign(static_cast<std::size_t>(res.groups_per_col * lq.cols),
                     0.0f);
  res.complemented.assign(
      static_cast<std::size_t>(res.groups_per_col * lq.cols), 0);
  return res;
}

}  // namespace rdo::core
