// Optimizer pass pipeline over a compiled DeploymentPlan.
//
// All four shipped passes are conservative: they only rewrite a plan
// when the result is provably equivalent at execution time (identical
// effective weights for the same programming draws), so enabling them
// can shrink the Table II offset-register account and the programming
// pulse count but never perturb eval accuracy of non-PWT schemes.
// Passes that would interfere with post-writing tuning skip PWT schemes
// entirely (see core/opt/pass.h).
#include "core/opt/pipeline.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/check.h"
#include "core/opt/pass.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rdo::core::opt {

namespace {

/// Eq. 9 geometric register count of one layer at its current m.
std::int64_t geometric_registers(const PlanLayer& pl) {
  return groups_per_column(pl.lq.rows, pl.m) * pl.lq.cols;
}

/// Structural consistency every pass must preserve; run_pipeline checks
/// it after each transform in addition to the pass's own invariant.
void check_layer_geometry(const DeploymentPlan& plan) {
  for (const PlanLayer& pl : plan.layers) {
    RDO_CHECK(pl.m >= 1, "opt: layer group size m < 1");
    RDO_CHECK(pl.assign.groups_per_col ==
                  groups_per_column(pl.lq.rows, pl.m),
              "opt: group count does not match the layer's m");
    const auto per_group = static_cast<std::size_t>(
        pl.assign.groups_per_col * pl.lq.cols);
    RDO_CHECK(pl.assign.offsets.size() == per_group &&
                  pl.assign.complemented.size() == per_group,
              "opt: offset vectors do not match the layer geometry");
    RDO_CHECK(pl.offset_registers >= 1 &&
                  pl.offset_registers <= geometric_registers(pl),
              "opt: register count outside [1, Eq. 9 count]");
    RDO_CHECK(pl.dead_cols.empty() ||
                  pl.dead_cols.size() ==
                      static_cast<std::size_t>(pl.lq.cols),
              "opt: dead-column mask does not match the column count");
  }
}

/// True when every merged sibling pair of groups (old size pl.m, new
/// size m2 = 2*pl.m) agrees on (offset, complement) in every column —
/// the cheap structural filter before the cost-table re-solve.
bool siblings_agree(const PlanLayer& pl, int m2) {
  const std::int64_t cols = pl.lq.cols;
  const std::int64_t old_groups = pl.assign.groups_per_col;
  const std::int64_t new_groups = groups_per_column(pl.lq.rows, m2);
  for (std::int64_t g2 = 0; g2 < new_groups; ++g2) {
    const std::int64_t first = g2 * 2;
    for (std::int64_t g = first + 1; g < std::min(old_groups, first + 2);
         ++g) {
      for (std::int64_t c = 0; c < cols; ++c) {
        const auto a = static_cast<std::size_t>(first * cols + c);
        const auto b = static_cast<std::size_t>(g * cols + c);
        if (pl.assign.offsets[a] != pl.assign.offsets[b] ||
            pl.assign.complemented[a] != pl.assign.complemented[b]) {
          return false;
        }
      }
    }
  }
  return true;
}

/// True when `cand` (solved at group size m2) expands to exactly the
/// per-row assignment of `pl.assign` (solved at pl.m): same CTWs and,
/// for every (row, column), the same offset and complement flag. This
/// is the bit-equivalence proof that makes a tuned m safe: both plans
/// program identical devices and fold identical effective weights.
bool expansion_matches(const PlanLayer& pl, const VawoResult& cand,
                       int m2) {
  if (cand.ctw != pl.assign.ctw) return false;
  const std::int64_t cols = pl.lq.cols;
  for (std::int64_t r = 0; r < pl.lq.rows; ++r) {
    const std::int64_t g_old = group_of_row(r, pl.m);
    const std::int64_t g_new = group_of_row(r, m2);
    for (std::int64_t c = 0; c < cols; ++c) {
      const auto a = static_cast<std::size_t>(g_old * cols + c);
      const auto b = static_cast<std::size_t>(g_new * cols + c);
      if (pl.assign.offsets[a] != cand.offsets[b] ||
          pl.assign.complemented[a] != cand.complemented[b]) {
        return false;
      }
    }
  }
  return true;
}

/// Re-impose dead-column canonical form on a freshly re-solved layer
/// (used by passes that re-run the solver after eliminate_dead_tiles).
void rezero_dead_columns(const PlanLayer& pl, VawoResult& res) {
  if (pl.dead_cols.empty()) return;
  const std::int64_t cols = pl.lq.cols;
  for (std::int64_t c = 0; c < cols; ++c) {
    if (pl.dead_cols[static_cast<std::size_t>(c)] == 0) continue;
    for (std::int64_t r = 0; r < pl.lq.rows; ++r) {
      res.ctw[static_cast<std::size_t>(r * cols + c)] = pl.lq.zero;
    }
    for (std::int64_t g = 0; g < res.groups_per_col; ++g) {
      res.offsets[static_cast<std::size_t>(g * cols + c)] = 0.0f;
      res.complemented[static_cast<std::size_t>(g * cols + c)] = 0;
    }
  }
}

/// True when `pl.assign.record` is a VAWO* solve of the layer at its
/// current group size (a loaded plan carries no record).
bool has_complement_record(const PlanLayer& pl) {
  const VawoRecord& rec = pl.assign.record;
  const auto groups = static_cast<std::size_t>(
      groups_per_column(pl.lq.rows, pl.m) * pl.lq.cols);
  return rec.m == pl.m && rec.use_complement &&
         rec.offsets.size() == groups && rec.complemented.size() == groups;
}

/// The solver output of a layer rebuilt from its record without a
/// re-solve: offsets and flags from the record, each CTW read from the
/// table row of its (mirrored, for a complemented group) NTW at the
/// recorded offset — exactly what vawo_layer produced.
VawoResult rebuild_from_record(const PlanLayer& pl, const VawoTable& table) {
  const VawoRecord& rec = pl.assign.record;
  const std::int64_t rows = pl.lq.rows, cols = pl.lq.cols;
  const int levels = table.weight_levels();
  VawoResult res;
  res.groups_per_col = groups_per_column(rows, pl.m);
  res.offsets = rec.offsets;
  res.complemented = rec.complemented;
  res.total_objective = rec.total_objective;
  res.record = rec;
  res.ctw.resize(static_cast<std::size_t>(rows * cols));
  for (std::int64_t r = 0; r < rows; ++r) {
    const std::int64_t g = group_of_row(r, pl.m);
    for (std::int64_t c = 0; c < cols; ++c) {
      const auto gi = static_cast<std::size_t>(g * cols + c);
      const auto i = static_cast<std::size_t>(r * cols + c);
      const int b = static_cast<int>(rec.offsets[gi]);
      const int ntw = pl.lq.q[i];
      RDO_CHECK(ntw >= 0 && ntw <= levels && b >= table.offset_min() &&
                    b <= table.offset_max(),
                "canonicalize_complement: recorded solve is out of the "
                "cost table's range");
      const int tau = rec.complemented[gi] != 0 ? levels - ntw : ntw;
      res.ctw[i] = table.ctw_row(tau)[table.offset_max() - b];
    }
  }
  return res;
}

/// Pass 1: per-layer offset-group size auto-tuning.
///
/// Doubles a layer's m while the merged assignment is provably
/// bit-equivalent: sibling groups must already agree on (offset,
/// complement), and for VAWO schemes the layer is re-solved at the
/// candidate m against the shared VawoTable — the doubled m is adopted
/// only when the re-solve reproduces the expanded assignment exactly
/// (the solver's strict first-found tie-breaking makes this
/// deterministic). Registers shrink by Eq. 9; effective weights, device
/// draws and therefore eval accuracy are unchanged.
class TuneGroupSize final : public Pass {
 public:
  [[nodiscard]] const char* name() const override {
    return "tune_group_size";
  }

  void run(DeploymentPlan& plan) const override {
    if (scheme_uses_pwt(plan.opt.scheme)) return;
    const bool vawo = scheme_uses_vawo(plan.opt.scheme);
    VawoTable table;
    bool have_table = false;
    std::int64_t layers_tuned = 0;
    for (PlanLayer& pl : plan.layers) {
      const int m_before = pl.m;
      const auto elems =
          static_cast<std::size_t>(pl.lq.rows * pl.lq.cols);
      // Doubling below kMaxGroupSize keeps any divisibility the seed m
      // satisfied (active wordlines, crossbar rows).
      while (pl.m <= kMaxGroupSize / 2) {
        const int m2 = pl.m * 2;
        if (!siblings_agree(pl, m2)) break;
        VawoResult cand;
        if (vawo) {
          if (pl.mean_grads.size() != elems) break;
          if (!have_table) {
            table = VawoTable::build(plan.lut,
                                     (1 << plan.opt.weight_bits) - 1,
                                     plan.opt.offsets,
                                     plan.opt.penalize_bias);
            have_table = true;
          }
          VawoOptions vopt;
          vopt.offsets = plan.opt.offsets;
          vopt.offsets.m = m2;
          vopt.use_complement = scheme_uses_complement(plan.opt.scheme);
          vopt.penalize_bias = plan.opt.penalize_bias;
          cand = vawo_layer(pl.lq, pl.mean_grads, table, vopt);
          rezero_dead_columns(pl, cand);
        } else {
          cand = plain_layer(pl.lq, m2);
          rezero_dead_columns(pl, cand);
          if (cand.ctw != pl.assign.ctw) break;
        }
        if (!expansion_matches(pl, cand, m2)) break;
        pl.assign = std::move(cand);
        pl.m = m2;
        pl.offset_registers =
            std::min(pl.offset_registers, geometric_registers(pl));
      }
      if (pl.m != m_before) ++layers_tuned;
    }
    rdo::obs::global_metrics()
        .counter("opt_group_size_layers_tuned")
        .add(layers_tuned);
  }

  void check(const DeploymentPlan& plan) const override {
    for (const PlanLayer& pl : plan.layers) {
      RDO_CHECK(pl.m >= plan.opt.offsets.m &&
                    pl.m % plan.opt.offsets.m == 0,
                "tune_group_size: layer m is not a multiple of the "
                "configured m");
      RDO_CHECK(pl.m <= std::max(kMaxGroupSize, plan.opt.offsets.m),
                "tune_group_size: layer m exceeds the crossbar row count");
    }
  }
};

/// Pass 2: offset-register coloring/sharing across tiles.
///
/// Accounting-only: groups whose registers would hold the identical
/// (offset value, complement flag) pair can share one physical register
/// across the layer's tiles, so the layer's register count drops to the
/// number of distinct pairs. The assignment itself is untouched.
class ColorOffsetRegisters final : public Pass {
 public:
  [[nodiscard]] const char* name() const override {
    return "color_offset_registers";
  }

  static std::int64_t distinct_registers(const PlanLayer& pl) {
    std::vector<std::uint64_t> keys;
    keys.reserve(pl.assign.offsets.size());
    for (std::size_t i = 0; i < pl.assign.offsets.size(); ++i) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &pl.assign.offsets[i], sizeof(bits));
      keys.push_back((static_cast<std::uint64_t>(bits) << 1) |
                     pl.assign.complemented[i]);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return static_cast<std::int64_t>(keys.size());
  }

  void run(DeploymentPlan& plan) const override {
    if (scheme_uses_pwt(plan.opt.scheme)) return;
    std::int64_t saved = 0;
    for (PlanLayer& pl : plan.layers) {
      const std::int64_t colored =
          std::min(pl.offset_registers, distinct_registers(pl));
      saved += pl.offset_registers - colored;
      pl.offset_registers = colored;
    }
    rdo::obs::global_metrics()
        .counter("opt_registers_colored_away")
        .add(saved);
  }

  void check(const DeploymentPlan& plan) const override {
    if (scheme_uses_pwt(plan.opt.scheme)) return;
    for (const PlanLayer& pl : plan.layers) {
      RDO_CHECK(pl.offset_registers <= distinct_registers(pl),
                "color_offset_registers: register count exceeds the "
                "distinct (offset, complement) values");
    }
  }
};

/// Pass 3: dead-tile elimination.
///
/// A column whose every NTW quantized to the zero point carries no
/// signal: its canonical deployment is "never programmed, reads back
/// exactly 0". The pass records the mask and rewrites the column to the
/// canonical form (CTW = zero point, offset 0, direct form); backends
/// skip the programming pulses for masked columns while preserving the
/// RNG draw stream of every live weight.
class EliminateDeadTiles final : public Pass {
 public:
  [[nodiscard]] const char* name() const override {
    return "eliminate_dead_tiles";
  }

  void run(DeploymentPlan& plan) const override {
    if (scheme_uses_pwt(plan.opt.scheme)) return;
    std::int64_t dead_columns = 0;
    for (PlanLayer& pl : plan.layers) {
      const std::int64_t rows = pl.lq.rows, cols = pl.lq.cols;
      std::vector<std::uint8_t> dead(static_cast<std::size_t>(cols), 0);
      std::int64_t n_dead = 0;
      for (std::int64_t c = 0; c < cols; ++c) {
        bool all_zero = true;
        for (std::int64_t r = 0; r < rows && all_zero; ++r) {
          all_zero = pl.lq.q[static_cast<std::size_t>(r * cols + c)] ==
                     pl.lq.zero;
        }
        if (all_zero) {
          dead[static_cast<std::size_t>(c)] = 1;
          ++n_dead;
        }
      }
      if (n_dead == 0) continue;
      pl.dead_cols = std::move(dead);
      VawoResult& a = pl.assign;
      rezero_dead_columns(pl, a);
      dead_columns += n_dead;
    }
    rdo::obs::global_metrics()
        .counter("opt_dead_columns_eliminated")
        .add(dead_columns);
  }

  void check(const DeploymentPlan& plan) const override {
    for (const PlanLayer& pl : plan.layers) {
      if (pl.dead_cols.empty()) continue;
      const std::int64_t rows = pl.lq.rows, cols = pl.lq.cols;
      for (std::int64_t c = 0; c < cols; ++c) {
        if (pl.dead_cols[static_cast<std::size_t>(c)] == 0) continue;
        for (std::int64_t r = 0; r < rows; ++r) {
          const auto i = static_cast<std::size_t>(r * cols + c);
          RDO_CHECK(pl.lq.q[i] == pl.lq.zero &&
                        pl.assign.ctw[i] == pl.lq.zero,
                    "eliminate_dead_tiles: masked column is not all-zero");
        }
        for (std::int64_t g = 0; g < pl.assign.groups_per_col; ++g) {
          const auto gi = static_cast<std::size_t>(g * cols + c);
          RDO_CHECK(pl.assign.offsets[gi] == 0.0f &&
                        pl.assign.complemented[gi] == 0,
                    "eliminate_dead_tiles: masked column carries an "
                    "offset or complement flag");
        }
      }
    }
  }
};

/// Pass 4: complement-form canonicalization.
///
/// Restores every VAWO* layer to the solver's assignment, which by the
/// solver's enumeration order (direct form first, strict-< winner) keeps
/// a complement flag only where the mirrored form is strictly better. A
/// layer that still carries the record of its solve (VawoRecord, at its
/// current m) is rebuilt from it against the shared cost table; any other
/// layer (a plan loaded from RDP2) is re-solved. On a solver-produced
/// plan this is the identity; on a plan whose flags or CTWs were
/// perturbed (or merged by other tooling) it restores the canonical
/// assignment.
class CanonicalizeComplement final : public Pass {
 public:
  [[nodiscard]] const char* name() const override {
    return "canonicalize_complement";
  }

  void run(DeploymentPlan& plan) const override {
    if (!scheme_uses_complement(plan.opt.scheme) ||
        scheme_uses_pwt(plan.opt.scheme)) {
      return;
    }
    VawoTable table = VawoTable::build(plan.lut,
                                       (1 << plan.opt.weight_bits) - 1,
                                       plan.opt.offsets,
                                       plan.opt.penalize_bias);
    std::int64_t demoted = 0;
    for (PlanLayer& pl : plan.layers) {
      const auto elems =
          static_cast<std::size_t>(pl.lq.rows * pl.lq.cols);
      if (pl.mean_grads.size() != elems) continue;
      VawoResult res;
      if (has_complement_record(pl)) {
        res = rebuild_from_record(pl, table);
      } else {
        VawoOptions vopt;
        vopt.offsets = plan.opt.offsets;
        vopt.offsets.m = pl.m;
        vopt.use_complement = true;
        vopt.penalize_bias = plan.opt.penalize_bias;
        res = vawo_layer(pl.lq, pl.mean_grads, table, vopt);
      }
      rezero_dead_columns(pl, res);
      for (std::size_t i = 0; i < res.complemented.size(); ++i) {
        if (pl.assign.complemented[i] == 1 && res.complemented[i] == 0) {
          ++demoted;
        }
      }
      pl.assign = std::move(res);
    }
    rdo::obs::global_metrics()
        .counter("opt_complement_groups_demoted")
        .add(demoted);
  }

  void check(const DeploymentPlan& plan) const override {
    for (const PlanLayer& pl : plan.layers) {
      for (std::uint8_t f : pl.assign.complemented) {
        RDO_CHECK(f <= 1, "canonicalize_complement: flag out of range");
        RDO_CHECK(f == 0 || scheme_uses_complement(plan.opt.scheme),
                  "canonicalize_complement: complement flag under a "
                  "non-complement scheme");
      }
    }
  }
};

const std::vector<std::unique_ptr<Pass>>& registry() {
  static const auto* passes = [] {
    auto* v = new std::vector<std::unique_ptr<Pass>>();
    v->push_back(std::make_unique<TuneGroupSize>());
    v->push_back(std::make_unique<ColorOffsetRegisters>());
    v->push_back(std::make_unique<EliminateDeadTiles>());
    v->push_back(std::make_unique<CanonicalizeComplement>());
    return v;
  }();
  return *passes;
}

const Pass* find_pass(const std::string& name) {
  for (const auto& p : registry()) {
    if (name == p->name()) return p.get();
  }
  return nullptr;
}

}  // namespace

const std::vector<std::string>& registered_passes() {
  static const auto* names = [] {
    auto* v = new std::vector<std::string>();
    for (const auto& p : registry()) v->emplace_back(p->name());
    return v;
  }();
  return *names;
}

std::optional<std::vector<std::string>> parse_pass_list(
    const std::string& spec, std::string* error) {
  std::vector<std::string> names;
  if (spec.empty()) return names;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string name = spec.substr(start, end - start);
    if (name.empty()) {
      if (error != nullptr) *error = "empty pass name in pass list";
      return std::nullopt;
    }
    if (find_pass(name) == nullptr) {
      if (error != nullptr) {
        std::string known;
        for (const std::string& n : registered_passes()) {
          if (!known.empty()) known += ", ";
          known += n;
        }
        *error = "unknown optimizer pass \"" + name + "\" (known: " +
                 known + ")";
      }
      return std::nullopt;
    }
    for (const std::string& seen : names) {
      if (seen == name) {
        if (error != nullptr) {
          *error = "optimizer pass \"" + name + "\" listed twice";
        }
        return std::nullopt;
      }
    }
    names.push_back(name);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return names;
}

void run_pipeline(DeploymentPlan& plan,
                  const std::vector<std::string>& names) {
  if (names.empty()) return;
  rdo::obs::TraceSpan pipeline_span("opt:pipeline", "opt");
  pipeline_span.arg("passes", static_cast<std::int64_t>(names.size()));
  for (const std::string& name : names) {
    const Pass* pass = find_pass(name);
    if (pass == nullptr) {
      throw std::invalid_argument("run_pipeline: unknown optimizer pass \"" +
                                  name + '"');
    }
    rdo::obs::TraceSpan span(("opt:" + name).c_str(), "opt");
    const std::int64_t before = plan.total_offset_registers();
    pass->run(plan);
    check_layer_geometry(plan);
    pass->check(plan);
    const std::int64_t after = plan.total_offset_registers();
    span.arg("registers_before", before);
    span.arg("registers_after", after);
    rdo::obs::global_metrics().counter("opt_pass_runs").add();
    if (after < before) {
      rdo::obs::global_metrics()
          .counter("opt_registers_saved")
          .add(before - after);
    }
    plan.passes_applied.push_back(name);
  }
}

}  // namespace rdo::core::opt
