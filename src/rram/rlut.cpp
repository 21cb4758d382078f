#include "rram/rlut.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "core/codec.h"

namespace rdo::rram {

RLut RLut::build(const WeightProgrammer& prog, int k_sets, int j_cycles,
                 rdo::nn::Rng rng) {
  RDO_CHECK(k_sets >= 1 && j_cycles >= 1,
            "RLut::build: " + std::to_string(k_sets) + " sets x " +
                std::to_string(j_cycles) + " cycles; both must be >= 1");
  RDO_CHECK(static_cast<std::int64_t>(k_sets) * j_cycles <= kMaxSamples,
            "RLut::build: " + std::to_string(k_sets) + " x " +
                std::to_string(j_cycles) + " samples per CTW exceed " +
                std::to_string(kMaxSamples));
  RLut lut;
  const int vmax = prog.max_weight();
  lut.mean_.resize(static_cast<std::size_t>(vmax) + 1);
  lut.var_.resize(static_cast<std::size_t>(vmax) + 1);
  const int samples = k_sets * j_cycles;
  std::vector<double> crw(static_cast<std::size_t>(samples));
  std::vector<double> ddv(static_cast<std::size_t>(prog.cells_per_weight()));
  const double sigma_ddv = prog.variation().sigma_ddv();
  for (int v = 0; v <= vmax; ++v) {
    // K device sets; each set programmed J times. With the lumped
    // DDV+CCV model every programming is an independent draw, but we keep
    // the K x J structure so a DDV split is measured correctly too.
    int i = 0;
    for (int k = 0; k < k_sets; ++k) {
      rdo::nn::Rng set_rng = rng.split(
          static_cast<std::uint64_t>(v) * 1000003ull + static_cast<std::uint64_t>(k));
      for (auto& t : ddv) t = set_rng.normal(0.0, sigma_ddv);
      for (int j = 0; j < j_cycles; ++j) {
        crw[static_cast<std::size_t>(i++)] =
            prog.program_with_ddv(v, ddv, set_rng);
      }
    }
    double m = 0.0;
    for (double x : crw) m += x;
    m /= samples;
    double var = 0.0;
    for (double x : crw) var += (x - m) * (x - m);
    var /= std::max(1, samples - 1);
    lut.mean_[static_cast<std::size_t>(v)] = m;
    lut.var_[static_cast<std::size_t>(v)] = var;
  }
  lut.enforce_monotone_mean();
  return lut;
}

RLut RLut::build_analytic(const WeightProgrammer& prog) {
  RLut lut;
  const int vmax = prog.max_weight();
  lut.mean_.resize(static_cast<std::size_t>(vmax) + 1);
  lut.var_.resize(static_cast<std::size_t>(vmax) + 1);
  for (int v = 0; v <= vmax; ++v) {
    lut.mean_[static_cast<std::size_t>(v)] = prog.analytic_mean(v);
    lut.var_[static_cast<std::size_t>(v)] = prog.analytic_var(v);
  }
  lut.enforce_monotone_mean();
  return lut;
}

void RLut::enforce_monotone_mean() {
  // Monte-Carlo noise can produce small non-monotonicities; the inversion
  // needs a monotone mean curve. A running-max pass (isotonic upper
  // envelope) is enough given E[R(v)] is linear-in-v in expectation.
  for (std::size_t v = 1; v < mean_.size(); ++v) {
    mean_[v] = std::max(mean_[v], mean_[v - 1] + 1e-12);
  }
}

// Bumped from "RLU1": version 1 headers carried no config fingerprint,
// so a cached table could silently load for a different device
// configuration. A v1 file now fails the magic check and reads as
// corrupt — callers rebuild, which is the correct recovery either way.
constexpr std::uint32_t kLutMagic = 0x524C5532;  // "RLU2"

std::uint64_t RLut::fingerprint(const WeightProgrammer& prog, int k_sets,
                                int j_cycles, std::uint64_t seed) {
  rdo::core::codec::Fnv1a h;
  h.u64(prog.cell().kind == CellKind::SLC ? 1u : 2u);
  h.f64(prog.cell().on_off_ratio);
  h.u64(static_cast<std::uint64_t>(prog.weight_bits()));
  const VariationModel& var = prog.variation();
  h.f64(var.sigma);
  h.f64(var.ddv_fraction);
  h.u64(var.scope == VariationScope::PerWeight ? 1u : 2u);
  const FaultModel& faults = prog.faults();
  h.f64(faults.stuck_hrs_rate);
  h.f64(faults.stuck_lrs_rate);
  h.u64(static_cast<std::uint64_t>(k_sets));
  h.u64(static_cast<std::uint64_t>(j_cycles));
  h.u64(seed);
  return h.value();
}

void RLut::save(std::ostream& out, std::uint64_t fingerprint) const {
  rdo::core::codec::Writer w(out, "RLut::save");
  w.scalar(kLutMagic);
  w.scalar(fingerprint);
  w.scalar(static_cast<std::uint64_t>(mean_.size()));
  w.raw(mean_.data(), mean_.size() * sizeof(double));
  w.raw(var_.data(), var_.size() * sizeof(double));
}

void RLut::save(const std::string& path, std::uint64_t fingerprint) const {
  // Atomic publish: concurrent loaders (parallel Monte-Carlo trials, or
  // processes sharing RDO_LUT_CACHE_DIR) only ever see complete tables.
  rdo::core::codec::publish(path, "RLut::save", [&](std::ostream& out) {
    save(out, fingerprint);
  });
}

bool RLut::load(std::istream& in, std::uint64_t fingerprint, RLut& out,
                const std::string& source) {
  rdo::core::codec::Reader<LutError> r(in, "RLut::load", source);
  const auto magic = r.scalar<std::uint32_t>();
  const auto stored_fp = r.scalar<std::uint64_t>();
  const auto n = r.scalar<std::uint64_t>();
  r.require(magic == kLutMagic, "bad magic");
  // kMaxEntries: the largest table any supported configuration produces
  // is 2^16 + 1 entries (16-bit CTWs); 2^20 leaves generous headroom
  // while keeping a hostile header from driving a multi-GB resize.
  constexpr std::uint64_t kMaxEntries = 1u << 20;
  r.require(n >= 1 && n <= kMaxEntries, "entry count out of range");
  // The payload is two double arrays of exactly n entries each; a size
  // mismatch in either direction (truncated or trailing bytes) means the
  // file is damaged.
  r.require(r.remaining() == n * 2 * sizeof(double), "payload size mismatch");
  if (stored_fp != fingerprint) {
    // Stale cache: the table was measured for a different device
    // configuration (or protocol/seed). Not corruption — the caller
    // rebuilds and overwrites.
    return false;
  }
  std::vector<double> mean(n), var(n);
  r.raw(mean.data(), n * sizeof(double));
  r.raw(var.data(), n * sizeof(double));
  // Values the solver trusts: invert_mean's lower_bound needs a
  // non-decreasing mean curve, and the pruned VAWO search needs every
  // variance >= 0 (core/vawo.h).
  for (std::uint64_t v = 0; v < n; ++v) {
    r.require(std::isfinite(mean[v]), "non-finite mean");
    r.require(std::isfinite(var[v]), "non-finite variance");
    r.require(var[v] >= 0.0, "negative variance");
    r.require(v == 0 || mean[v] >= mean[v - 1], "decreasing mean");
  }
  out.mean_ = std::move(mean);
  out.var_ = std::move(var);
  return true;
}

bool RLut::load(const std::string& path, std::uint64_t fingerprint,
                RLut& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  return load(f, fingerprint, out, path);
}

int RLut::invert_mean(double target) const {
  const auto it = std::lower_bound(mean_.begin(), mean_.end(), target);
  if (it == mean_.begin()) return 0;
  if (it == mean_.end()) return max_weight();
  const int hi = static_cast<int>(it - mean_.begin());
  const int lo = hi - 1;
  return (target - mean_[static_cast<std::size_t>(lo)] <=
          mean_[static_cast<std::size_t>(hi)] - target)
             ? lo
             : hi;
}

}  // namespace rdo::rram
