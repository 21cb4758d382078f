// BENCH document diffing: the trajectory regression gate.
//
// Compares the *deterministic* sections of two BENCH_<name>.json files
// (counters, gauges, results, failures — the same set covered by
// BenchReport::deterministic_dump() and the cross-thread-count
// determinism test). Counters are exact by default; gauges and numeric
// results admit declared absolute/relative tolerances so a baseline
// recorded on one machine can gate runs on another (FP accumulation
// order may differ across compilers even though it is fixed for a
// given binary). Volatile sections (env, timing, pool, histograms) are
// summarized informationally and never fail the diff.
#pragma once

#include <string>
#include <vector>

#include "obs/json.h"

namespace rdo::obs {

struct DiffOptions {
  /// Absolute tolerance for gauge/result numeric leaves.
  double abs_tol = 0.0;
  /// Relative tolerance for gauge/result numeric leaves (fraction of
  /// max(|baseline|, |current|)). A leaf passes if EITHER tolerance
  /// accepts it.
  double rel_tol = 0.0;
  /// Relative tolerance for counters; 0 means counters must match
  /// exactly.
  double counter_rel_tol = 0.0;
};

struct DiffReport {
  /// Deterministic-section divergences beyond tolerance; nonempty
  /// means the gate fails.
  std::vector<std::string> regressions;
  /// Deterministic-section values that differ but lie within tolerance.
  std::vector<std::string> drifts;
  /// Informational notes: volatile sections or schema_version differ.
  std::vector<std::string> infos;

  [[nodiscard]] bool ok() const { return regressions.empty(); }
};

/// Diff two BENCH documents under `opt`. Both must be objects; missing
/// deterministic sections are themselves regressions.
DiffReport diff_bench_documents(const Json& baseline, const Json& current,
                                const DiffOptions& opt);

}  // namespace rdo::obs
