// Measurement helpers of the rdo_e2e benchmark: exact percentiles over raw
// samples, the deterministic run digest, and the per-layer span ledger
// computed from a Chrome trace document.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

namespace rdo::e2e {

/// A percentile read off sorted raw samples by the nearest-rank rule, with
/// the sample count and how many samples lie strictly beyond its rank.
struct Percentile {
  double value = 0.0;
  std::int64_t n = 0;
  std::int64_t beyond = 0;
};

/// Nearest-rank percentile of `sorted` (ascending) at q in (0, 1].
[[nodiscard]] Percentile percentile(const std::vector<double>& sorted,
                                    double q);

/// Median of an unsorted sample (mean of the two middle values when even).
[[nodiscard]] double median(std::vector<double> v);

/// 64-bit FNV-1a, fed field by field.
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n);
  void add(std::int64_t v) { add_bytes(&v, sizeof(v)); }
  void add(float v) { add_bytes(&v, sizeof(v)); }
  void add(const std::string& s) { add_bytes(s.data(), s.size()); }
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Totals of every span sharing one name: calls, busy time (sum of
/// durations), self time (durations minus the part covered by direct
/// child spans on the same thread) and calls that carried an "error" arg.
struct SpanTotals {
  std::int64_t count = 0;
  double busy_ms = 0.0;
  double self_ms = 0.0;
  std::int64_t failures = 0;

  [[nodiscard]] double mean_ms() const {
    return count > 0 ? busy_ms / static_cast<double>(count) : 0.0;
  }
};

/// Per-name span totals of a traced run.
using SpanLedger = std::map<std::string, SpanTotals>;

/// The totals of `name`; all zero when no span had that name.
[[nodiscard]] SpanTotals span_totals(const SpanLedger& spans,
                                     const std::string& name);

/// Fold the complete ("ph":"X") events of a trace document into per-name
/// totals. Spans on one thread nest (they are RAII scopes), so each span's
/// direct children are found with one stack per thread.
[[nodiscard]] SpanLedger span_ledger(const rdo::obs::Json& trace);

}  // namespace rdo::e2e
