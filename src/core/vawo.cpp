#include "core/vawo.h"

#include <cmath>
#include <cstring>
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

/// Two doubles in one SIMD register (GCC and Clang vector extensions).
using D2 = double __attribute__((vector_size(16)));

/// Weights folded into one pass over the offset accumulator.
constexpr std::size_t kSweepWeights = 4;

/// Adds the cost terms of kW weights (NTWs `ntw`, squared gradient
/// weights `g`; mirrored to levels - ntw for the complement form) to the
/// offset accumulator `a`: a[j] += term_t in ascending t, with
/// term_t = g[t] * var_t[j], then += g[t] * bias_t[j] * bias_t[j]. Offset
/// pairs (j, j + 1) share one D2 register (the offset count 2^offset_bits
/// is even), so a[j] is loaded and stored once per kW weights, and each
/// lane adds the same terms in the same order as a one-weight-at-a-time
/// loop.
template <std::size_t kW>
void sweep_weights(const int* ntw, const double* g, const VawoTable& table,
                   bool mirrored, double* a) {
  const double* vr[kW] = {};
  const double* br[kW] = {};
  D2 gg[kW] = {};
  for (std::size_t t = 0; t < kW; ++t) {
    const int tau = mirrored ? table.weight_levels() - ntw[t] : ntw[t];
    vr[t] = table.var_row(tau);
    br[t] = table.bias_row(tau);
    gg[t] = D2{g[t], g[t]};
  }
  const int nb = table.offset_count();
  for (int j = 0; j < nb; j += 2) {
    D2 acc = {};
    std::memcpy(&acc, a + j, sizeof acc);
    for (std::size_t t = 0; t < kW; ++t) {
      D2 v = {}, b = {};
      std::memcpy(&v, vr[t] + j, sizeof v);
      std::memcpy(&b, br[t] + j, sizeof b);
      D2 term = gg[t] * v;
      term += gg[t] * b * b;
      acc += term;
    }
    std::memcpy(a + j, &acc, sizeof acc);
  }
}

/// Adds the cost terms of the n weights of one group, in ascending weight
/// order, to every offset of the accumulator `a` (see sweep_weights).
/// One instruction-set copy of the sweep: kernel_isa() picks it.
using SweepFn = void (*)(const int* ntw, const double* g, std::size_t n,
                         const VawoTable& table, bool mirrored, double* a);

void sweep_group_baseline(const int* ntw, const double* g, std::size_t n,
                          const VawoTable& table, bool mirrored, double* a) {
  std::size_t i = 0;
  for (; i + kSweepWeights <= n; i += kSweepWeights) {
    sweep_weights<kSweepWeights>(ntw + i, g + i, table, mirrored, a);
  }
  switch (n - i) {
    case 3: sweep_weights<3>(ntw + i, g + i, table, mirrored, a); break;
    case 2: sweep_weights<2>(ntw + i, g + i, table, mirrored, a); break;
    case 1: sweep_weights<1>(ntw + i, g + i, table, mirrored, a); break;
    default: break;
  }
}

#if RDO_NN_AVX_COPY
/// Four doubles in one AVX register.
using D4 = double __attribute__((vector_size(32)));

/// Offsets [j, j + 4 * V) of the AVX sweep: V accumulators stay in
/// registers while all n weights add their terms, each lane in the same
/// order and with the same expression shape as sweep_weights (g * v, then
/// += g * b * b, then onto the sum; no fused multiply-add).
template <int V>
[[gnu::always_inline]] inline void sweep_block_avx(
    const int* ntw, const double* g, std::size_t n, const VawoTable& table,
    bool mirrored, int j, double* a) {
  D4 acc[V];
  std::memcpy(acc, a + j, sizeof acc);
  const int levels = table.weight_levels();
  for (std::size_t t = 0; t < n; ++t) {
    const int tau = mirrored ? levels - ntw[t] : ntw[t];
    const double* vr = table.var_row(tau) + j;
    const double* br = table.bias_row(tau) + j;
    const D4 gg = {g[t], g[t], g[t], g[t]};
    for (int v = 0; v < V; ++v) {
      D4 var = {}, bias = {};
      std::memcpy(&var, vr + 4 * v, sizeof var);
      std::memcpy(&bias, br + 4 * v, sizeof bias);
      D4 term = gg * var;
      term += gg * bias * bias;
      acc[v] += term;
    }
  }
  std::memcpy(a + j, acc, sizeof acc);
}

/// The AVX copy: blocks of 16 offsets, or of 4 for a 2- or 3-bit
/// register (the offset count is a power of two). The two offsets of a
/// 1-bit register take the baseline sweep.
[[gnu::target("avx")]] void sweep_group_avx(const int* ntw, const double* g,
                                            std::size_t n,
                                            const VawoTable& table,
                                            bool mirrored, double* a) {
  const int nb = table.offset_count();
  if (nb < 4) {
    sweep_group_baseline(ntw, g, n, table, mirrored, a);
    return;
  }
  int j = 0;
  for (; j + 16 <= nb; j += 16) {
    sweep_block_avx<4>(ntw, g, n, table, mirrored, j, a);
  }
  for (; j < nb; j += 4) {
    sweep_block_avx<1>(ntw, g, n, table, mirrored, j, a);
  }
}
#endif

SweepFn sweep_group([[maybe_unused]] rdo::nn::KernelIsa isa) {
#if RDO_NN_AVX_COPY
  if (isa == rdo::nn::KernelIsa::avx) return sweep_group_avx;
#endif
  return sweep_group_baseline;
}

/// Solver core. Accumulates, for each form, the objective of every
/// offset candidate in one weight-outer/offset-inner sweep: the candidates
/// of weight i live in the contiguous table slice starting at its target
/// value tau_i, so the inner loop is a branch-free gather + multiply-add,
/// and adjacent offsets share all per-weight table work (offset
/// b = offset_max - j reads element tau_i + j). The sweep is register
/// tiled: the baseline copy folds kSweepWeights weights into each pass
/// over the accumulator, and the AVX copy keeps a block of offsets in
/// registers across all the group's weights.
///
/// Bit-exactness with the per-candidate oracle (tests/vawo_oracle.h): for
/// a fixed offset the per-weight terms are accumulated in the same weight
/// order with identically shaped expressions (g2*var, then
/// += g2*bias*bias with the raw bias — never a pre-squared bias, which
/// would round differently), and the winner scan replicates the oracle's
/// enumeration order and strict-< tie-breaking.
/// With penalize_bias off the bias row is all zeros and the += adds +0.0,
/// which never changes a finite sum.
double solve_group_table(SweepFn sweep, const int* ntw, const double* g2,
                         std::size_t n, const VawoTable& table,
                         bool use_complement, std::vector<double>& acc,
                         int& best_offset, bool& best_complemented,
                         std::vector<int>& best_ctw) {
  const int nb = table.offset_count();
  const int levels = table.weight_levels();
  const int forms = use_complement ? 2 : 1;
  RDO_DCHECK(nb % 2 == 0, "vawo: offset count is not even");
  acc.assign(static_cast<std::size_t>(nb) * static_cast<std::size_t>(forms),
             0.0);
  for (int form = 0; form < forms; ++form) {
    double* a = acc.data() + static_cast<std::size_t>(form) *
                                 static_cast<std::size_t>(nb);
    sweep(ntw, g2, n, table, form == 1, a);
  }
  double best = -1.0;
  bool found = false;
  for (int form = 0; form < forms; ++form) {
    const double* a = acc.data() + static_cast<std::size_t>(form) *
                                       static_cast<std::size_t>(nb);
    for (int b = table.offset_min(); b <= table.offset_max(); ++b) {
      const double obj = a[table.offset_max() - b];
      if (best < 0.0 || obj < best) {
        best = obj;
        best_offset = b;
        best_complemented = form == 1;
      }
      found = true;
    }
  }
  RDO_CHECK(found, "vawo_solve_group: empty offset enumeration range");
  best_ctw.resize(n);
  const int j = table.offset_max() - best_offset;
  for (std::size_t i = 0; i < n; ++i) {
    const int tau = best_complemented ? levels - ntw[i] : ntw[i];
    best_ctw[i] = table.ctw_row(tau)[j];
  }
  return best;
}

void check_group_shape(std::size_t ntw, std::size_t grad) {
  RDO_CHECK(ntw == grad && ntw != 0,
            "vawo_solve_group: " + std::to_string(ntw) + " weights vs " +
                std::to_string(grad) + " gradients");
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
  t.ctw_.resize(size);
  t.var_.resize(size);
  t.bias_.resize(size);
  for (std::size_t idx = 0; idx < size; ++idx) {
    const double target_mean =
        static_cast<double>(static_cast<int>(idx) - t.bmax_);
    const int v = lut.invert_mean(target_mean);
    t.ctw_[idx] = v;
    t.var_[idx] = lut.var(v);
    t.bias_[idx] = penalize_bias ? lut.mean(v) - target_mean : 0.0;
  }
  return t;
}

namespace detail {

double vawo_solve_group(rdo::nn::KernelIsa isa, const std::vector<int>& ntw,
                        const std::vector<double>& g2, const VawoTable& table,
                        bool use_complement, int& best_offset,
                        bool& best_complemented, std::vector<int>& best_ctw) {
  check_group_shape(ntw.size(), g2.size());
  for (int w : ntw) {
    RDO_CHECK(w >= 0 && w <= table.weight_levels(),
              "vawo_solve_group: NTW " + std::to_string(w) +
                  " outside [0, " + std::to_string(table.weight_levels()) +
                  "]");
  }
  std::vector<double> acc;
  return solve_group_table(sweep_group(isa), ntw.data(), g2.data(),
                           ntw.size(), table, use_complement, acc,
                           best_offset, best_complemented, best_ctw);
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
  for (int w : lq.q) {
    RDO_CHECK(w >= 0 && w <= lq.levels(),
              "vawo_layer: NTW " + std::to_string(w) + " outside [0, " +
                  std::to_string(lq.levels()) + "]");
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
  // loop never re-squares.
  double mean_abs = 0.0;
  for (double g : grads) mean_abs += std::fabs(g);
  mean_abs /= static_cast<double>(grads.size());
  const double floor = mean_abs > 0.0 ? kGradFloorFrac * mean_abs : 1.0;
  std::vector<double> g2(grads.size());
  for (std::size_t i = 0; i < grads.size(); ++i) {
    const double w = std::max(std::fabs(grads[i]), floor);
    g2[i] = w * w;
  }

  const SweepFn sweep = sweep_group(isa);
  std::vector<int> ntw;
  std::vector<double> grad;
  std::vector<int> ctw;
  std::vector<double> acc;
  for (std::int64_t c = 0; c < cols; ++c) {
    for (std::int64_t g = 0; g < res.groups_per_col; ++g) {
      const std::int64_t r0 = g * opt.offsets.m;
      const std::int64_t r1 = std::min<std::int64_t>(rows, r0 + opt.offsets.m);
      ntw.clear();
      grad.clear();
      for (std::int64_t r = r0; r < r1; ++r) {
        ntw.push_back(lq.at(r, c));
        grad.push_back(g2[static_cast<std::size_t>(r * cols + c)]);
      }
      int b = 0;
      bool comp = false;
      res.total_objective +=
          solve_group_table(sweep, ntw.data(), grad.data(), ntw.size(),
                            table, opt.use_complement, acc, b, comp, ctw);
      for (std::int64_t r = r0; r < r1; ++r) {
        res.ctw[static_cast<std::size_t>(r * cols + c)] =
            ctw[static_cast<std::size_t>(r - r0)];
      }
      res.offsets[static_cast<std::size_t>(g * cols + c)] =
          static_cast<float>(b);
      res.complemented[static_cast<std::size_t>(g * cols + c)] =
          comp ? 1 : 0;
    }
  }
  res.record.m = opt.offsets.m;
  res.record.use_complement = opt.use_complement;
  res.record.offsets = res.offsets;
  res.record.complemented = res.complemented;
  res.record.total_objective = res.total_objective;
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
