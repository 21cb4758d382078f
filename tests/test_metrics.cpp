// Live metrics registry (obs/metrics.h) and structured logging
// (obs/log.h): instrument semantics, concurrent determinism, the JSON
// export, folding one registry into another (merge), and the log line
// format contract.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"

using namespace rdo;
using obs::Json;

TEST(Metrics, CounterAddsAndSumsAcrossShards) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("serve_requests");
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  // Find-or-create: same name resolves to the same instrument.
  EXPECT_EQ(&reg.counter("serve_requests"), &c);
}

TEST(Metrics, GaugeIsLastWriteWins) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("serve_uptime_seconds");
  EXPECT_EQ(g.value(), 0.0);
  g.set(1.5);
  g.set(-2.25);
  EXPECT_EQ(g.value(), -2.25);
}

TEST(Metrics, NameClaimsExactlyOneInstrumentKind) {
  obs::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x"), std::logic_error);
  reg.gauge("y");
  EXPECT_THROW(reg.counter("y"), std::logic_error);
}

TEST(Metrics, BucketGeometryIsLog2Microseconds) {
  // bucket i covers [2^i, 2^(i+1)) microseconds.
  EXPECT_EQ(obs::latency_bucket_index(0.0), 0);
  EXPECT_EQ(obs::latency_bucket_index(-1.0), 0);
  EXPECT_EQ(obs::latency_bucket_index(0.5e-6), 0);  // sub-µs
  EXPECT_EQ(obs::latency_bucket_index(1.0e-6), 0);
  EXPECT_EQ(obs::latency_bucket_index(3.0e-6), 1);
  EXPECT_EQ(obs::latency_bucket_index(4.0e-6), 2);
  EXPECT_EQ(obs::latency_bucket_index(1e9), obs::kLatencyBuckets - 1);
  for (int i = 0; i < obs::kLatencyBuckets; ++i) {
    const double mid = obs::latency_bucket_midpoint_seconds(i);
    EXPECT_EQ(obs::latency_bucket_index(mid), i);
  }
}

TEST(Metrics, HistogramSnapshotTracksCountSumAndExtremes) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("serve_request_seconds");
  obs::HistogramSnapshot empty = h.snapshot();
  EXPECT_EQ(empty.count, 0);
  EXPECT_EQ(empty.min_seconds, 0.0);
  EXPECT_EQ(empty.max_seconds, 0.0);

  h.observe(3.0e-6);
  h.observe(40.0e-6);
  h.observe(1.0e-3);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3);
  EXPECT_EQ(s.min_seconds, 3.0e-6);
  EXPECT_EQ(s.max_seconds, 1.0e-3);
  EXPECT_NEAR(s.sum_seconds, 3.0e-6 + 40.0e-6 + 1.0e-3, 1e-8);
  std::int64_t total = 0;
  for (const std::int64_t b : s.buckets) total += b;
  EXPECT_EQ(total, 3);
  EXPECT_EQ(s.buckets[static_cast<std::size_t>(
                obs::latency_bucket_index(3.0e-6))],
            1);
  // A non-finite sample must neither crash nor corrupt the sum.
  h.observe(std::nan(""));
  EXPECT_EQ(h.snapshot().count, 4);
}

namespace {

/// Deterministic concurrent stress: `nthreads` threads hammer one
/// counter and one histogram; the final snapshot must be an exact
/// function of the work, independent of interleaving.
void stress_registry(int nthreads) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("stress_total");
  obs::Histogram& h = reg.histogram("stress_seconds");
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(2);
        h.observe(1.0e-6 * static_cast<double>(i % 64 + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::int64_t n = static_cast<std::int64_t>(nthreads) * kPerThread;
  EXPECT_EQ(c.value(), 2 * n);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, n);
  EXPECT_EQ(s.min_seconds, 1.0e-6);
  EXPECT_EQ(s.max_seconds, 64.0e-6);
  std::int64_t total = 0;
  for (const std::int64_t b : s.buckets) total += b;
  EXPECT_EQ(total, n);
}

}  // namespace

TEST(Metrics, ConcurrentStressSingleThread) { stress_registry(1); }

TEST(Metrics, ConcurrentStressFourThreads) { stress_registry(4); }

TEST(Metrics, SnapshotJsonIsSortedAndValid) {
  obs::MetricsRegistry reg;
  // Registered out of order: the export must sort by name.
  reg.counter("serve_requests").add(3);
  reg.counter("deploy_lut_cache_hits").add(1);
  reg.gauge("serve_uptime_seconds").set(2.0);
  reg.histogram("serve_request_seconds").observe(5.0e-6);

  const Json doc = reg.snapshot_json();
  std::string err;
  EXPECT_TRUE(obs::validate_metrics_json(doc, &err)) << err;
  const auto& counters = doc.find("counters")->members();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "deploy_lut_cache_hits");
  EXPECT_EQ(counters[1].first, "serve_requests");
  EXPECT_EQ(counters[1].second.as_int(), 3);
  // Identical state serializes identically (snapshot determinism).
  EXPECT_EQ(doc.dump(), reg.snapshot_json().dump());
}

TEST(Metrics, QuantileWalksBucketsAndClamps) {
  std::array<std::int64_t, obs::kLatencyBuckets> buckets{};
  buckets[3] = 10;  // ten samples in [8µs, 16µs)
  const double q50 =
      obs::latency_histogram_quantile(buckets, 10, 0.50, 9.0e-6, 12.0e-6);
  EXPECT_EQ(q50, obs::latency_bucket_midpoint_seconds(3));
  // Clamped to the observed extremes when the midpoint overshoots.
  const double q99 =
      obs::latency_histogram_quantile(buckets, 10, 0.99, 9.0e-6, 1.0e-5);
  EXPECT_EQ(q99, 1.0e-5);
}

TEST(Metrics, MergeFoldsOneRegistryIntoAnother) {
  obs::MetricsRegistry reg;
  reg.counter("serve_requests").add(5);
  reg.gauge("serve_uptime_seconds").set(1.25);
  obs::Histogram& h = reg.histogram("serve_request_seconds");
  h.observe(3.0e-6);
  h.observe(40.0e-6);
  reg.histogram("serve_idle_seconds");  // registered, never observed

  obs::MetricsRegistry into;
  into.counter("serve_requests").add(2);  // counters add
  into.gauge("serve_uptime_seconds").set(9.0);  // gauges are set
  into.histogram("serve_request_seconds").observe(2.0e-3);
  into.merge(reg);

  EXPECT_EQ(into.counter("serve_requests").value(), 7);
  EXPECT_EQ(into.gauge("serve_uptime_seconds").value(), 1.25);
  const obs::HistogramSnapshot lat =
      into.histogram("serve_request_seconds").snapshot();
  EXPECT_EQ(lat.count, 3);  // merged, not resampled
  EXPECT_EQ(lat.min_seconds, 3.0e-6);
  EXPECT_EQ(lat.max_seconds, 2.0e-3);
  // Empty histograms are not carried over.
  EXPECT_EQ(into.snapshot().histograms.size(), 1u);
}

TEST(Metrics, MergeOfEmptyRegistryIsByteIdenticalNoOp) {
  obs::MetricsRegistry reg;
  reg.counter("bench_existing").add(2);
  reg.histogram("bench_lat_seconds").observe(1.0e-4);
  const std::string before = reg.snapshot_json().dump();
  const obs::MetricsRegistry empty;
  reg.merge(empty);
  EXPECT_EQ(reg.snapshot_json().dump(), before);
}

TEST(Metrics, ValidateMetricsJsonRejectsStructuralDamage) {
  obs::MetricsRegistry reg;
  reg.counter("c").add();
  reg.histogram("h").observe(1.0e-5);
  std::string err;
  ASSERT_TRUE(obs::validate_metrics_json(reg.snapshot_json(), &err)) << err;

  Json no_hists = Json::object();
  no_hists["counters"] = Json::object();
  no_hists["gauges"] = Json::object();
  EXPECT_FALSE(obs::validate_metrics_json(no_hists, &err));
  EXPECT_NE(err.find("histograms"), std::string::npos);

  Json bad_counter = reg.snapshot_json();
  bad_counter["counters"]["c"] = "not an int";
  EXPECT_FALSE(obs::validate_metrics_json(bad_counter, &err));

  Json short_buckets = reg.snapshot_json();
  short_buckets["histograms"]["h"]["bucket_counts"] = Json::array();
  EXPECT_FALSE(obs::validate_metrics_json(short_buckets, &err));
  EXPECT_NE(err.find("bucket_counts"), std::string::npos);
}

TEST(Metrics, GlobalRegistryIsProcessWideSingleton) {
  obs::MetricsRegistry& a = obs::global_metrics();
  obs::MetricsRegistry& b = obs::global_metrics();
  EXPECT_EQ(&a, &b);
}

// ---------------------------------------------------------------------
// Structured logging (obs/log.h)

TEST(Log, LevelNamesRoundTrip) {
  using obs::LogLevel;
  EXPECT_STREQ(obs::to_string(LogLevel::Debug), "debug");
  EXPECT_STREQ(obs::to_string(LogLevel::Error), "error");
  EXPECT_EQ(obs::log_level_from_string("WARN", LogLevel::Info),
            LogLevel::Warn);
  EXPECT_EQ(obs::log_level_from_string("warning", LogLevel::Info),
            LogLevel::Warn);
  EXPECT_EQ(obs::log_level_from_string("off", LogLevel::Info),
            LogLevel::Off);
  EXPECT_EQ(obs::log_level_from_string("bogus", LogLevel::Error),
            LogLevel::Error);
}

TEST(Log, LevelFilteringIsMonotonic) {
  using obs::LogLevel;
  obs::log_set_level(LogLevel::Warn);
  EXPECT_FALSE(obs::log_enabled(LogLevel::Debug));
  EXPECT_FALSE(obs::log_enabled(LogLevel::Info));
  EXPECT_TRUE(obs::log_enabled(LogLevel::Warn));
  EXPECT_TRUE(obs::log_enabled(LogLevel::Error));
  obs::log_set_level(LogLevel::Off);
  EXPECT_FALSE(obs::log_enabled(LogLevel::Error));
  obs::log_set_level(LogLevel::Info);  // restore the default
}

TEST(Log, TextFormatIsPinned) {
  Json fields = Json::object();
  fields["path"] = "/tmp/a b.bin";  // needs quoting
  fields["n"] = 3;
  fields["ratio"] = 0.5;
  const std::string line = obs::format_log_line(
      obs::LogFormat::Text, 12.345, obs::LogLevel::Warn, "deploy",
      "corrupt entry", fields);
  EXPECT_EQ(line,
            "[    12.345] WARN  deploy: corrupt entry "
            "path=\"/tmp/a b.bin\" n=3 ratio=0.5");
  // Values without spaces stay unquoted.
  Json plain = Json::object();
  plain["op"] = "ping";
  EXPECT_EQ(obs::format_log_line(obs::LogFormat::Text, 0.0,
                                 obs::LogLevel::Info, "serve", "ok", plain),
            "[     0.000] INFO  serve: ok op=ping");
}

TEST(Log, JsonLinesParseBackWithFieldsInline) {
  Json fields = Json::object();
  fields["request_id"] = 7;
  fields["status"] = "ok";
  const std::string line = obs::format_log_line(
      obs::LogFormat::JsonLines, 1.5, obs::LogLevel::Info, "serve",
      "request handled", fields);
  const Json doc = Json::parse(line);
  EXPECT_EQ(doc.find("ts")->as_double(), 1.5);
  EXPECT_EQ(doc.find("level")->as_string(), "info");
  EXPECT_EQ(doc.find("subsystem")->as_string(), "serve");
  EXPECT_EQ(doc.find("message")->as_string(), "request handled");
  EXPECT_EQ(doc.find("request_id")->as_int(), 7);
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
}

TEST(Log, EmitsToRedirectedSinkAndFiltersBelowLevel) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  obs::log_set_sink(sink);
  obs::log_set_format(obs::LogFormat::Text);
  obs::log_set_level(obs::LogLevel::Info);

  obs::log_info("test", "visible").with("k", "v");
  obs::log_debug("test", "filtered out");

  obs::log_set_sink(nullptr);  // restore stderr before asserting
  std::rewind(sink);
  std::string content;
  int c = 0;
  while ((c = std::fgetc(sink)) != EOF) {
    content.push_back(static_cast<char>(c));
  }
  std::fclose(sink);
  EXPECT_NE(content.find("INFO  test: visible k=v\n"), std::string::npos)
      << content;
  EXPECT_EQ(content.find("filtered out"), std::string::npos) << content;
}
