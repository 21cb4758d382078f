// Statistical look-up table of E[R(v)] and Var[R(v)] per CTW value.
//
// Implements the paper's testing protocol (§III-B): "For each CTW v, K
// random sets of n memristors are selected. For each set, it is programmed
// with the CTW v for J times and the final CRWs are measured." Here the
// memristors are simulated by WeightProgrammer, which is exactly what the
// protocol measures on real hardware. An analytic construction is also
// provided as a cross-check oracle.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/check.h"
#include "nn/rng.h"
#include "rram/programmer.h"

namespace rdo::rram {

/// Raised by RLut::load on a corrupt, truncated or oversized cache file.
/// Derives from std::runtime_error so existing corrupt-file-throws catch
/// sites keep working; a distinct type so cache-recovery code can tell a
/// damaged table from unrelated I/O failures.
class LutError : public std::runtime_error {
 public:
  explicit LutError(const std::string& what) : std::runtime_error(what) {}
};

class RLut {
 public:
  /// Largest K x J sample count per CTW value that build() accepts (an
  /// 8 MiB sample buffer).
  static constexpr std::int64_t kMaxSamples = std::int64_t{1} << 20;

  /// Build the LUT by Monte-Carlo statistical testing (K sets x J cycles
  /// per CTW value). Throws ContractViolation, before allocating, when
  /// k_sets or j_cycles is below 1 or their product exceeds kMaxSamples.
  static RLut build(const WeightProgrammer& prog, int k_sets, int j_cycles,
                    rdo::nn::Rng rng);

  /// Build from the closed-form moments (test oracle / fast path).
  static RLut build_analytic(const WeightProgrammer& prog);

  [[nodiscard]] int max_weight() const {
    return static_cast<int>(mean_.size()) - 1;
  }
  [[nodiscard]] double mean(int v) const {
    RDO_DCHECK(v >= 0 && v < static_cast<int>(mean_.size()),
               "RLut::mean: CTW out of range");
    return mean_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] double var(int v) const {
    RDO_DCHECK(v >= 0 && v < static_cast<int>(var_.size()),
               "RLut::var: CTW out of range");
    return var_[static_cast<std::size_t>(v)];
  }

  /// The CTW whose E[R(v)] is closest to `target` (monotone inversion;
  /// clamps outside the representable range).
  [[nodiscard]] int invert_mean(double target) const;

  /// 64-bit fingerprint of everything a cached table depends on: cell
  /// kind and ON/OFF ratio, weight bits, the sigma/DDV variation split
  /// and scope, stuck-at-fault rates, the K x J testing protocol and
  /// the build seed. Two configurations that would measure different
  /// statistics never share a fingerprint (up to hash collisions).
  [[nodiscard]] static std::uint64_t fingerprint(const WeightProgrammer& prog,
                                                 int k_sets, int j_cycles,
                                                 std::uint64_t seed);

  /// Persist the table together with its config fingerprint (device
  /// characterization is expensive on real hardware; cache it). Writes
  /// atomically (core/codec.h publish: a temp file whose name is unique
  /// across concurrent saver processes too, renamed into place) so a
  /// concurrent load never observes a half-written or interleaved table.
  /// Throws on I/O failure.
  void save(const std::string& path, std::uint64_t fingerprint) const;
  /// Stream form of the writer: append one complete save() document to
  /// `out` (used to embed tables inside DeploymentPlan files). Throws on
  /// stream failure.
  void save(std::ostream& out, std::uint64_t fingerprint) const;
  /// Load a table saved by save(). Returns false if the file does not
  /// exist, or if its stored fingerprint differs from `fingerprint`
  /// (stale cache for another device configuration — the caller
  /// rebuilds); throws LutError on a corrupt or truncated file, or on a
  /// table the solver cannot trust: a non-finite mean or variance, a
  /// negative variance or a decreasing mean.
  static bool load(const std::string& path, std::uint64_t fingerprint,
                   RLut& out);

  /// Stream form of the loader: parse one complete save() document from
  /// `in` (must be seekable — an open binary ifstream or istringstream).
  /// `source` names the stream in diagnostics. Same contract as the path
  /// overload except a missing file is the caller's problem. This is the
  /// single parsing path; the path overload and the fuzz harness both
  /// call it.
  static bool load(std::istream& in, std::uint64_t fingerprint, RLut& out,
                   const std::string& source);

 private:
  std::vector<double> mean_;
  std::vector<double> var_;

  void enforce_monotone_mean();
};

}  // namespace rdo::rram
