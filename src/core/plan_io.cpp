// DeploymentPlan serialization (save/load/fingerprint) — the on-disk half
// of the compile-once/execute-many story.
//
// Format ("RDP2", version-in-magic like the RLut's "RLU2"):
//
//   u32  magic "RDP2"
//   u64  config fingerprint (plan_fingerprint of the compiling caller)
//   ...  DeployOptions block (fixed-width fields + the length-prefixed
//        optimizer pass list, see save())
//   u64  LUT byte count, then one embedded RLut save() document (RLU2)
//   u32  layer count, then per layer: geometry, per-layer offset-group
//        size m and register count (written before the arrays so their
//        declared counts validate against the layer's own m), LayerQuant,
//        mean gradients, VawoResult, dead-column mask
//   u32  activation-calibration count, then {bits, max_abs} entries
//   u32  applied-pass count, then length-prefixed registered pass names
//
// RDP1 files fail the magic check and raise PlanError ("bad magic") —
// the cache-recovery path then recompiles and overwrites them; since the
// magic participates in plan_fingerprint, stale RDP1 cache entries can
// never alias an RDP2 fingerprint either.
//
// The load path treats the file as untrusted input (it is the payload
// behind the opt-in RDO_PLAN_CACHE_DIR shared cache) and reads through
// the shared codec (core/codec.h): every read is checked against the
// stream state, every declared count is bounded by the bytes actually
// remaining before it is believed, enum and range
// fields are validated before any object is constructed from them, and
// trailing bytes are rejected. A damaged file raises PlanError — never a
// partially-initialized plan, an unbounded resize, or a ContractViolation
// from deeper layers. fuzz/fuzz_plan.cpp hammers exactly this contract.
//
// compile_stats is intentionally not serialized: wall times are volatile,
// and a loaded plan reporting zero compile time is precisely what a cache
// hit means (the warm-start test asserts it).
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/codec.h"
#include "core/opt/pipeline.h"
#include "core/plan.h"
#include "nn/matrix_op.h"
#include "quant/act_quant.h"

namespace rdo::core {

namespace {

constexpr std::uint32_t kPlanMagic = 0x52445032;  // "RDP2" (little-endian "2PDR" on disk; a tag, not text)

// Structural ceilings for hostile headers. Far above anything a real
// network produces, far below anything that could drive a multi-GB
// resize before the byte budget catches it.
constexpr std::uint64_t kMaxLayers = 4096;
constexpr std::uint64_t kMaxLayerElems = std::uint64_t{1} << 28;
constexpr std::uint64_t kMaxCalib = 4096;
constexpr std::uint64_t kMaxDim = std::uint64_t{1} << 24;
constexpr std::uint64_t kMaxPassSpec = 4096;  ///< pass-list string bytes
constexpr std::uint64_t kMaxPasses = 64;      ///< applied-pass record entries

using codec::Fnv1a;
using codec::Writer;
using Reader = codec::Reader<PlanError>;

template <typename T>
T finite(Reader& r) {
  const auto v = r.scalar<T>();
  r.require(std::isfinite(v), "non-finite floating-point field");
  return v;
}

void hash_options(const DeployOptions& o, Fnv1a& h) {
  h.u64(static_cast<std::uint64_t>(o.scheme));
  h.u64(static_cast<std::uint64_t>(o.offsets.m));
  h.u64(static_cast<std::uint64_t>(o.offsets.offset_bits));
  h.u64(o.cell.kind == rdo::rram::CellKind::SLC ? 1u : 2u);
  h.f64(o.cell.on_off_ratio);
  h.f64(o.variation.sigma);
  h.f64(o.variation.ddv_fraction);
  h.u64(o.variation.scope == rdo::rram::VariationScope::PerWeight ? 1u : 2u);
  h.f64(o.faults.stuck_hrs_rate);
  h.f64(o.faults.stuck_lrs_rate);
  h.u64(static_cast<std::uint64_t>(o.weight_bits));
  h.u64(static_cast<std::uint64_t>(o.pwt.epochs));
  h.f64(static_cast<double>(o.pwt.lr));
  h.u64(static_cast<std::uint64_t>(o.pwt.batch_size));
  h.u64(static_cast<std::uint64_t>(o.pwt.max_samples));
  h.u64(o.pwt.mean_init ? 1u : 0u);
  h.u64(o.quantize_activations ? 1u : 0u);
  h.u64(o.penalize_bias ? 1u : 0u);
  h.u64(static_cast<std::uint64_t>(o.lut_k_sets));
  h.u64(static_cast<std::uint64_t>(o.lut_j_cycles));
  h.u64(static_cast<std::uint64_t>(o.grad_samples));
  h.u64(static_cast<std::uint64_t>(o.grad_batch));
  h.u64(o.seed);
  h.str(o.opt_passes);
}

void write_options(Writer& w, const DeployOptions& o) {
  w.scalar(static_cast<std::uint32_t>(o.scheme));
  w.scalar(static_cast<std::int32_t>(o.offsets.m));
  w.scalar(static_cast<std::int32_t>(o.offsets.offset_bits));
  w.scalar(static_cast<std::uint32_t>(o.cell.kind));
  w.scalar(o.cell.on_off_ratio);
  w.scalar(o.variation.sigma);
  w.scalar(o.variation.ddv_fraction);
  w.scalar(static_cast<std::uint32_t>(o.variation.scope));
  w.scalar(o.faults.stuck_hrs_rate);
  w.scalar(o.faults.stuck_lrs_rate);
  w.scalar(static_cast<std::int32_t>(o.weight_bits));
  w.scalar(static_cast<std::int32_t>(o.pwt.epochs));
  w.scalar(o.pwt.lr);
  w.scalar(o.pwt.batch_size);
  w.scalar(o.pwt.max_samples);
  w.scalar(static_cast<std::uint8_t>(o.pwt.mean_init ? 1 : 0));
  w.scalar(static_cast<std::uint8_t>(o.quantize_activations ? 1 : 0));
  w.scalar(static_cast<std::uint8_t>(o.penalize_bias ? 1 : 0));
  w.scalar(static_cast<std::int32_t>(o.lut_k_sets));
  w.scalar(static_cast<std::int32_t>(o.lut_j_cycles));
  w.scalar(o.grad_samples);
  w.scalar(o.grad_batch);
  w.scalar(o.seed);
  w.array(o.opt_passes);
}

DeployOptions read_options(Reader& r) {
  DeployOptions o;
  const auto scheme = r.scalar<std::uint32_t>();
  r.require(scheme <= static_cast<std::uint32_t>(Scheme::VAWOStarPWT),
            "unknown scheme");
  o.scheme = static_cast<Scheme>(scheme);
  const auto m = r.scalar<std::int32_t>();
  r.require(m >= 1 && static_cast<std::uint64_t>(m) <= kMaxDim,
            "offset group size out of range");
  o.offsets.m = m;
  const auto obits = r.scalar<std::int32_t>();
  r.require(obits >= 1 && obits <= 30, "offset register width out of range");
  o.offsets.offset_bits = obits;
  const auto kind = r.scalar<std::uint32_t>();
  r.require(kind <= 1, "unknown cell kind");
  o.cell.kind = static_cast<rdo::rram::CellKind>(kind);
  o.cell.on_off_ratio = finite<double>(r);
  r.require(o.cell.on_off_ratio > 1.0, "ON/OFF ratio out of range");
  o.variation.sigma = finite<double>(r);
  r.require(o.variation.sigma >= 0.0, "negative sigma");
  o.variation.ddv_fraction = finite<double>(r);
  r.require(o.variation.ddv_fraction >= 0.0 && o.variation.ddv_fraction <= 1.0,
            "DDV fraction out of range");
  const auto scope = r.scalar<std::uint32_t>();
  r.require(scope <= 1, "unknown variation scope");
  o.variation.scope = static_cast<rdo::rram::VariationScope>(scope);
  o.faults.stuck_hrs_rate = finite<double>(r);
  o.faults.stuck_lrs_rate = finite<double>(r);
  r.require(o.faults.stuck_hrs_rate >= 0.0 && o.faults.stuck_hrs_rate <= 1.0 &&
                o.faults.stuck_lrs_rate >= 0.0 &&
                o.faults.stuck_lrs_rate <= 1.0,
            "fault rate out of range");
  const auto wbits = r.scalar<std::int32_t>();
  r.require(wbits >= 1 && wbits <= 16, "weight bits out of range");
  r.require(wbits % o.cell.bits() == 0,
            "weight bits not divisible into cells");
  o.weight_bits = wbits;
  o.pwt.epochs = r.scalar<std::int32_t>();
  r.require(o.pwt.epochs >= 0, "negative PWT epoch count");
  o.pwt.lr = finite<float>(r);
  o.pwt.batch_size = r.scalar<std::int64_t>();
  o.pwt.max_samples = r.scalar<std::int64_t>();
  r.require(o.pwt.batch_size >= 1 && o.pwt.max_samples >= 0,
            "PWT batch geometry out of range");
  o.pwt.mean_init = r.scalar<std::uint8_t>() != 0;
  o.quantize_activations = r.scalar<std::uint8_t>() != 0;
  o.penalize_bias = r.scalar<std::uint8_t>() != 0;
  o.lut_k_sets = r.scalar<std::int32_t>();
  o.lut_j_cycles = r.scalar<std::int32_t>();
  r.require(o.lut_k_sets >= 1 &&
                static_cast<std::uint64_t>(o.lut_k_sets) <= kMaxDim &&
                o.lut_j_cycles >= 1 &&
                static_cast<std::uint64_t>(o.lut_j_cycles) <= kMaxDim,
            "LUT protocol out of range");
  o.grad_samples = r.scalar<std::int64_t>();
  o.grad_batch = r.scalar<std::int64_t>();
  r.require(o.grad_samples >= 0 && o.grad_batch >= 1,
            "gradient budget out of range");
  o.seed = r.scalar<std::uint64_t>();
  std::string spec = r.text(kMaxPassSpec);
  std::string err;
  if (!opt::parse_pass_list(spec, &err)) {
    r.fail("invalid optimizer pass list: " + err);
  }
  o.opt_passes = std::move(spec);
  return o;
}

}  // namespace

void DeploymentPlan::save(std::ostream& out,
                          std::uint64_t fingerprint) const {
  Writer w(out, "DeploymentPlan::save");
  w.scalar(kPlanMagic);
  w.scalar(fingerprint);
  write_options(w, opt);

  // Embed the LUT as one length-prefixed RLU2 document so the hardened
  // RLut loader parses it back (single parsing path for LUT bytes).
  std::ostringstream lut_bytes(std::ios::binary);
  lut.save(lut_bytes, rdo::rram::RLut::fingerprint(prog, opt.lut_k_sets,
                                                   opt.lut_j_cycles,
                                                   opt.seed));
  w.array(lut_bytes.str());

  w.scalar(static_cast<std::uint32_t>(layers.size()));
  for (const PlanLayer& pl : layers) {
    w.scalar(pl.fan_in);
    w.scalar(pl.fan_out);
    // Per-layer execution metadata goes before the arrays so the loader
    // can validate their declared counts against this layer's own m.
    w.scalar(static_cast<std::int32_t>(pl.m));
    w.scalar(pl.offset_registers);
    w.scalar(static_cast<std::int32_t>(pl.lq.bits));
    w.scalar(pl.lq.scale);
    w.scalar(static_cast<std::int32_t>(pl.lq.zero));
    w.scalar(pl.lq.rows);
    w.scalar(pl.lq.cols);
    w.array(pl.lq.q);
    w.array(pl.mean_grads);
    w.array(pl.assign.ctw);
    w.array(pl.assign.offsets);
    w.array(pl.assign.complemented);
    w.scalar(pl.assign.groups_per_col);
    w.scalar(pl.assign.total_objective);
    w.array(pl.dead_cols);
  }

  w.scalar(static_cast<std::uint32_t>(act_calib.size()));
  for (const ActCalibration& ac : act_calib) {
    w.scalar(static_cast<std::int32_t>(ac.bits));
    w.scalar(ac.max_abs);
  }

  w.scalar(static_cast<std::uint32_t>(passes_applied.size()));
  for (const std::string& name : passes_applied) w.array(name);
}

void DeploymentPlan::save(const std::string& path,
                          std::uint64_t fingerprint) const {
  codec::publish(path, "DeploymentPlan::save",
                 [&](std::ostream& out) { save(out, fingerprint); });
}

std::optional<DeploymentPlan> DeploymentPlan::load(std::istream& in,
                                                   std::uint64_t fingerprint,
                                                   const std::string& source) {
  Reader r(in, "DeploymentPlan::load", source);

  if (r.scalar<std::uint32_t>() != kPlanMagic) r.fail("bad magic");
  const auto stored_fp = r.scalar<std::uint64_t>();
  if (stored_fp != fingerprint) {
    // Stale cache: compiled for another configuration (or a format/seed
    // change). Not corruption — the caller recompiles and overwrites.
    return std::nullopt;
  }

  const DeployOptions opt = read_options(r);
  DeploymentPlan plan(opt);

  // Embedded LUT: extract the length-prefixed blob and feed it to the
  // hardened RLut loader, which re-checks its own header, payload size
  // and fingerprint over exactly this span.
  {
    std::istringstream lut_in(r.text(r.remaining()), std::ios::binary);
    const std::uint64_t lut_fp = rdo::rram::RLut::fingerprint(
        plan.prog, opt.lut_k_sets, opt.lut_j_cycles, opt.seed);
    try {
      if (!rdo::rram::RLut::load(lut_in, lut_fp, plan.lut,
                                 source + " (embedded LUT)")) {
        r.fail("embedded LUT fingerprint mismatch");
      }
    } catch (const rdo::rram::LutError& e) {
      throw PlanError(std::string("DeploymentPlan::load: ") + e.what());
    }
  }
  r.require(plan.lut.max_weight() == plan.prog.max_weight(),
            "embedded LUT size does not match weight bits");

  const auto n_layers = r.scalar<std::uint32_t>();
  r.require(n_layers >= 1 && n_layers <= kMaxLayers,
            "layer count out of range");
  plan.layers.resize(n_layers);
  const int levels = (1 << opt.weight_bits) - 1;
  for (std::uint32_t li = 0; li < n_layers; ++li) {
    PlanLayer& pl = plan.layers[li];
    pl.fan_in = r.scalar<std::int64_t>();
    pl.fan_out = r.scalar<std::int64_t>();
    r.require(pl.fan_in >= 1 &&
                  static_cast<std::uint64_t>(pl.fan_in) <= kMaxDim &&
                  pl.fan_out >= 1 &&
                  static_cast<std::uint64_t>(pl.fan_out) <= kMaxDim,
              "layer fan geometry out of range");
    const auto layer_m = r.scalar<std::int32_t>();
    r.require(layer_m >= opt.offsets.m && layer_m % opt.offsets.m == 0 &&
                  static_cast<std::uint64_t>(layer_m) <= kMaxDim,
              "layer group size out of range");
    pl.m = layer_m;
    pl.offset_registers = r.scalar<std::int64_t>();
    const auto bits = r.scalar<std::int32_t>();
    r.require(bits == opt.weight_bits, "layer bit width mismatch");
    pl.lq.bits = bits;
    pl.lq.scale = finite<float>(r);
    pl.lq.zero = r.scalar<std::int32_t>();
    pl.lq.rows = r.scalar<std::int64_t>();
    pl.lq.cols = r.scalar<std::int64_t>();
    r.require(pl.lq.rows >= 1 &&
                  static_cast<std::uint64_t>(pl.lq.rows) <= kMaxDim &&
                  pl.lq.cols >= 1 &&
                  static_cast<std::uint64_t>(pl.lq.cols) <= kMaxDim,
              "layer matrix shape out of range");
    const std::uint64_t elems = static_cast<std::uint64_t>(pl.lq.rows) *
                                static_cast<std::uint64_t>(pl.lq.cols);
    r.require(elems <= kMaxLayerElems, "layer element count out of range");

    pl.lq.q = r.array<int>(elems);
    r.require(pl.lq.q.size() == elems, "NTW count mismatch");
    for (int v : pl.lq.q) {
      r.require(v >= 0 && v <= levels, "NTW value out of range");
    }
    pl.mean_grads = r.array<double>(elems);
    r.require(pl.mean_grads.empty() || pl.mean_grads.size() == elems,
              "gradient count mismatch");
    for (double g : pl.mean_grads) {
      r.require(std::isfinite(g), "non-finite gradient");
    }
    pl.assign.ctw = r.array<int>(elems);
    r.require(pl.assign.ctw.size() == elems, "CTW count mismatch");
    for (int v : pl.assign.ctw) {
      r.require(v >= 0 && v <= levels, "CTW value out of range");
    }
    r.require(pl.offset_registers >= 1 &&
                  pl.offset_registers <=
                      groups_per_column(pl.lq.rows, pl.m) * pl.lq.cols,
              "layer register count out of range");
    const std::uint64_t groups =
        static_cast<std::uint64_t>(groups_per_column(pl.lq.rows, pl.m)) *
        static_cast<std::uint64_t>(pl.lq.cols);
    pl.assign.offsets = r.array<float>(groups);
    r.require(pl.assign.offsets.size() == groups, "offset count mismatch");
    for (float b : pl.assign.offsets) {
      r.require(std::isfinite(b), "non-finite offset");
    }
    pl.assign.complemented = r.array<std::uint8_t>(groups);
    r.require(pl.assign.complemented.size() == groups,
              "complement-flag count mismatch");
    for (std::uint8_t c : pl.assign.complemented) {
      r.require(c <= 1, "complement flag out of range");
    }
    pl.assign.groups_per_col = r.scalar<std::int64_t>();
    r.require(pl.assign.groups_per_col ==
                  groups_per_column(pl.lq.rows, pl.m),
              "group count does not match geometry");
    pl.assign.total_objective = finite<double>(r);
    pl.dead_cols = r.array<std::uint8_t>(
        static_cast<std::uint64_t>(pl.lq.cols));
    r.require(pl.dead_cols.empty() ||
                  pl.dead_cols.size() ==
                      static_cast<std::size_t>(pl.lq.cols),
              "dead-column mask size mismatch");
    for (std::int64_t c = 0;
         c < static_cast<std::int64_t>(pl.dead_cols.size()); ++c) {
      const std::uint8_t flag = pl.dead_cols[static_cast<std::size_t>(c)];
      r.require(flag <= 1, "dead-column flag out of range");
      if (flag == 0) continue;
      // A marked column must actually be canonically dead: backends skip
      // its programming, so believing a hostile flag would silently zero
      // live weights.
      for (std::int64_t row = 0; row < pl.lq.rows; ++row) {
        const auto e = static_cast<std::size_t>(row * pl.lq.cols + c);
        r.require(pl.lq.q[e] == pl.lq.zero && pl.assign.ctw[e] == pl.lq.zero,
                  "dead-column flag over a live weight");
      }
      for (std::int64_t g = 0; g < pl.assign.groups_per_col; ++g) {
        const auto gi = static_cast<std::size_t>(g * pl.lq.cols + c);
        r.require(pl.assign.offsets[gi] == 0.0f &&
                      pl.assign.complemented[gi] == 0,
                  "dead-column flag over a nonzero offset");
      }
    }
  }

  const auto n_calib = r.scalar<std::uint32_t>();
  r.require(n_calib <= kMaxCalib, "calibration count out of range");
  plan.act_calib.resize(n_calib);
  for (std::uint32_t i = 0; i < n_calib; ++i) {
    const auto bits = r.scalar<std::int32_t>();
    r.require(bits >= 1 && bits <= 16, "calibration bits out of range");
    plan.act_calib[i].bits = bits;
    plan.act_calib[i].max_abs = finite<float>(r);
    r.require(plan.act_calib[i].max_abs >= 0.0f,
              "negative calibration range");
  }

  const auto n_passes = r.scalar<std::uint32_t>();
  r.require(n_passes <= kMaxPasses, "applied-pass count out of range");
  plan.passes_applied.reserve(n_passes);
  for (std::uint32_t i = 0; i < n_passes; ++i) {
    std::string name = r.text(kMaxPassSpec);
    r.require(!name.empty(), "empty pass name");
    bool known = false;
    for (const std::string& reg : opt::registered_passes()) {
      if (reg == name) {
        known = true;
        break;
      }
    }
    r.require(known, "unregistered pass in provenance record");
    plan.passes_applied.push_back(std::move(name));
  }

  r.finish();
  return plan;
}

std::optional<DeploymentPlan> DeploymentPlan::load(const std::string& path,
                                                   std::uint64_t fingerprint) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  return load(f, fingerprint, path);
}

std::uint64_t plan_fingerprint(const rdo::nn::Layer& net,
                               const DeployOptions& opt,
                               const rdo::nn::DataView& train) {
  Fnv1a h;
  h.u64(kPlanMagic);  // format bumps invalidate every cached plan
  hash_options(opt, h);

  // Network: structure (layer names + crossbar shapes in traversal
  // order) and content (every parameter and buffer byte). params() and
  // buffers() are non-const in the Layer interface but only read here.
  auto& mut = const_cast<rdo::nn::Layer&>(net);
  std::vector<rdo::nn::Layer*> all;
  rdo::nn::collect_layers(&mut, all);
  h.u64(all.size());
  for (rdo::nn::Layer* l : all) {
    h.str(l->name());
    if (const auto* op = dynamic_cast<const rdo::nn::MatrixOp*>(l)) {
      h.u64(static_cast<std::uint64_t>(op->fan_in()));
      h.u64(static_cast<std::uint64_t>(op->fan_out()));
    }
    if (const auto* aq = dynamic_cast<const rdo::quant::ActQuant*>(l)) {
      h.u64(static_cast<std::uint64_t>(aq->bits()));
    }
  }
  for (rdo::nn::Param* p : mut.params()) {
    h.u64(static_cast<std::uint64_t>(p->value.size()));
    h.bytes(p->value.data(),
            static_cast<std::size_t>(p->value.size()) * sizeof(float));
  }
  for (rdo::nn::Tensor* b : mut.buffers()) {
    h.u64(static_cast<std::uint64_t>(b->size()));
    h.bytes(b->data(), static_cast<std::size_t>(b->size()) * sizeof(float));
  }

  // Calibration/gradient dataset: activation calibration and the VAWO
  // mean-gradient estimate both read it, so two different datasets must
  // never share a plan.
  h.u64(static_cast<std::uint64_t>(train.images->size()));
  for (std::int64_t d : train.images->shape()) {
    h.u64(static_cast<std::uint64_t>(d));
  }
  h.bytes(train.images->data(),
          static_cast<std::size_t>(train.images->size()) * sizeof(float));
  h.u64(train.labels->size());
  h.bytes(train.labels->data(), train.labels->size() * sizeof(int));
  return h.value();
}

}  // namespace rdo::core
