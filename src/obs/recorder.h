// Named phase timers, counters and gauges for one harness run.
//
// Split along the determinism boundary the BENCH_*.json schema encodes:
// phases are wall-clock measurements (volatile across machines and
// RDO_THREADS settings), counters and gauges are derived from the
// seeded computation and must be identical for any thread count.
// A Recorder is thread-safe so parallel Monte-Carlo tasks can report
// into one instance; merge order never affects the serialized output
// because entries accumulate under stable insertion-ordered names.
// Latency histograms are obs::Histogram instances (obs/metrics.h), the
// same lock-free type the live registry uses, serialized in name order.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"

namespace rdo::obs {

class Recorder {
 public:
  /// Add wall-clock seconds to phase `name` (created on first use;
  /// phases keep first-use order in the serialized report).
  void add_phase(const std::string& name, double seconds);

  /// Increment counter `name` by `delta`.
  void incr(const std::string& name, std::int64_t delta = 1);

  /// Set gauge `name` (last write wins).
  void set_gauge(const std::string& name, double value);

  /// Record one latency sample (seconds) into histogram `name` (created
  /// on first use). Samples below 1 us land in bucket 0, samples beyond
  /// the top bucket in the last one; min/max track the raw values.
  void observe(const std::string& name, double seconds);

  /// Latency histogram `name`, created on first use. absorb_metrics
  /// merges live registry histograms in through this.
  Histogram& histogram(const std::string& name);

  [[nodiscard]] double phase_seconds(const std::string& name) const;
  [[nodiscard]] std::int64_t counter(const std::string& name) const;

  /// `[{"name": ..., "seconds": ...}, ...]` — volatile timing section.
  [[nodiscard]] Json phases_json() const;
  /// `{name: count, ...}` — deterministic.
  [[nodiscard]] Json counters_json() const;
  /// `{name: value, ...}` — deterministic.
  [[nodiscard]] Json gauges_json() const;
  /// `{name: {count, sum/min/max_seconds, p50/p95/p99_seconds,
  /// bucket_counts[kLatencyBuckets]}, ...}` in name order — the
  /// histogram_snapshot_json shape. Wall-clock derived, so it belongs
  /// to the volatile half of the schema. Quantiles are the geometric
  /// midpoint of the rank bucket, clamped to [min, max].
  [[nodiscard]] Json histograms_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, double>> phases_;
  std::vector<std::pair<std::string, std::int64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
  MetricsRegistry histograms_;  ///< histograms only; has its own lock
};

/// RAII helper timing one phase of a Recorder.
class PhaseTimer {
 public:
  PhaseTimer(Recorder& rec, std::string name)
      : rec_(rec), name_(std::move(name)) {}
  ~PhaseTimer() { rec_.add_phase(name_, watch_.seconds()); }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  Recorder& rec_;
  std::string name_;
  Stopwatch watch_;
};

}  // namespace rdo::obs
