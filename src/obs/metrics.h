// Metrics: a registry of named counters, gauges and latency histograms,
// the repo's one metrics store.
//
// Two kinds of owner hold one. A BENCH report (obs/report.h) serializes
// its registry once, at the end, as the document's `counters`, `gauges`
// and `histograms` sections. Long-running processes (rdo_serve,
// overnight fault/drift campaigns) keep registries whose instruments sit
// on the request hot path and are snapshotted at any moment for a live
// `stats` request or a periodic dump:
//
//   * Counter    monotonic int64; add() lands in one of kMetricShards
//                cache-line-padded relaxed atomics chosen per thread,
//                so concurrent increments never contend on one line.
//   * Gauge      last-write-wins double (atomic store/load).
//   * Histogram  log2-microsecond latency buckets plus a sum track.
//                It is the only latency histogram in the repo.
//
// Instruments are created on first use and never destroyed, so a
// resolved Counter& stays valid for the registry's lifetime — resolve
// once, then add() with no lock. snapshot() walks every instrument in
// name order under the registration lock, giving one stable, sorted
// view; the one export, JSON via obs::Json, is a deterministic function
// of the snapshot.
//
// Naming convention (the rdo_lint `metric-name` rule): lowercase
// snake_case, subsystem prefix first ("serve_", "deploy_", "bench_",
// "process_"), unit suffix last where one applies ("_seconds",
// "_bytes").
//
// merge() folds one registry into another (counters add, gauges set,
// Histogram::merge, no resampling): rdo_serve moves its live registries
// into its BENCH report that way at exit. Merging an empty registry is a
// no-op, so a report whose process never used a live registry is
// unchanged by it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace rdo::obs {

/// Latency histograms use fixed log-scale buckets: bucket i counts
/// samples in [2^i, 2^(i+1)) microseconds, so 28 buckets span 1 us to
/// ~4.5 minutes. The fixed geometry keeps the serialized shape stable
/// regardless of the samples observed.
inline constexpr int kLatencyBuckets = 28;

/// Shards per counter/histogram. 16 × 64B = 1 KiB per counter: plenty
/// of isolation for the pool's worker counts without bloating a
/// registry of dozens of instruments.
inline constexpr int kMetricShards = 16;

namespace metrics_internal {
/// Stable per-thread shard index in [0, kMetricShards), assigned
/// round-robin at first use.
int thread_shard() noexcept;

struct alignas(64) ShardedCell {
  std::atomic<std::int64_t> v{0};
};
}  // namespace metrics_internal

/// Histogram bucket index for a latency in seconds: floor(log2(µs)),
/// clamped to [0, kLatencyBuckets).
int latency_bucket_index(double seconds);
/// Seconds at the geometric midpoint of bucket i.
double latency_bucket_midpoint_seconds(int i);
/// Value at quantile q of a bucketed latency distribution: the
/// geometric midpoint of the rank bucket, clamped to [min_s, max_s].
/// The p50/p95/p99 of the JSON export.
double latency_histogram_quantile(
    const std::array<std::int64_t, kLatencyBuckets>& buckets,
    std::int64_t count, double q, double min_s, double max_s);

/// Monotonic counter. add() is wait-free on x86: one relaxed fetch_add
/// on the calling thread's shard.
class Counter {
 public:
  void add(std::int64_t delta = 1) noexcept {
    shards_[metrics_internal::thread_shard()].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    std::int64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  std::array<metrics_internal::ShardedCell, kMetricShards> shards_;
};

/// Last-write-wins gauge.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time view of one histogram (sums over all shards).
struct HistogramSnapshot {
  std::int64_t count = 0;
  double sum_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;
  std::array<std::int64_t, kLatencyBuckets> buckets{};
};

/// Log2-µs latency histogram. observe() touches only the calling
/// thread's shard (bucket increment + nanosecond sum) plus two relaxed
/// CAS loops for min/max.
class Histogram {
 public:
  void observe(double seconds) noexcept;
  /// Fold another histogram's snapshot in: bucket counts and sums add,
  /// min/max widen. A zero-count snapshot is a no-op.
  void merge(const HistogramSnapshot& other) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const noexcept;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::int64_t>, kLatencyBuckets> buckets{};
    std::atomic<std::int64_t> sum_ns{0};
  };
  std::array<Shard, kMetricShards> shards_;
  // Extremes start at ±infinity so the CAS fold works from the first
  // sample; snapshot() reports 0 for both until count > 0.
  std::atomic<double> min_seconds_{
      std::numeric_limits<double>::infinity()};
  std::atomic<double> max_seconds_{
      -std::numeric_limits<double>::infinity()};
};

/// Full registry view: instruments in sorted-name order.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

class MetricsRegistry {
 public:
  /// Find-or-create by name. The returned reference is valid for the
  /// registry's lifetime; resolve once and cache it on hot paths.
  /// A name resolves to exactly one instrument kind — asking for a
  /// counter named like an existing gauge throws std::logic_error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// One consistent pass over every registered instrument, sorted by
  /// name (std::map order). Values are relaxed reads — increments
  /// racing the snapshot land in this view or the next, never torn.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Fold `other`'s snapshot in: counters add, gauges set, non-empty
  /// histograms Histogram::merge. Merging an empty registry is a no-op.
  void merge(const MetricsRegistry& other);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with
  /// sorted member names; histogram entries are histogram_snapshot_json
  /// (count/sum/min/max/p50/p95/p99/bucket_counts).
  [[nodiscard]] Json snapshot_json() const;

 private:
  mutable std::mutex mu_;  ///< guards the maps (not the instruments)
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-wide registry for code without a natural owner (the deploy
/// cache counters); services that need isolated metrics (one registry
/// per InferenceService) construct their own.
MetricsRegistry& global_metrics();

/// JSON form of one HistogramSnapshot (the snapshot_json() entry shape).
[[nodiscard]] Json histogram_snapshot_json(const HistogramSnapshot& h);

/// Structural validation of a snapshot_json() document: the three
/// sections present, counters int, gauges numeric, histograms carrying
/// count/min/max/quantiles/sum_seconds and exactly kLatencyBuckets
/// bucket_counts. Diagnostic in *err on failure.
bool validate_metrics_json(const Json& doc, std::string* err);

}  // namespace rdo::obs
