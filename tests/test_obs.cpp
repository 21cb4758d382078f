// Tests for the observability layer (src/obs): JSON round-trips, the
// BENCH report's metrics and phase table, document schema validation,
// and the end-to-end determinism contract — the deterministic sections
// of a report are byte-identical across RDO_THREADS settings for a
// fixed seed, also when pool threads write into one report.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/deploy.h"
#include "obs/envvar.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/kernel_isa.h"
#include "nn/parallel.h"
#include "nn/sequential.h"
#include "obs/env.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "quant/act_quant.h"

using rdo::obs::Json;

namespace {

/// Restores the pool width on scope exit (pattern from test_parallel.cpp).
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) : prev_(rdo::nn::thread_count()) {
    rdo::nn::set_thread_count(n);
  }
  ~ThreadGuard() { rdo::nn::set_thread_count(prev_); }

 private:
  int prev_;
};

Json sample_doc() {
  Json doc = Json::object();
  doc["int"] = std::int64_t{42};
  doc["negative"] = -7;
  doc["pi"] = 3.141592653589793;
  doc["tenth"] = 0.1;
  doc["third"] = 1.0 / 3.0;
  doc["tiny"] = 1.25e-7;
  doc["flag"] = true;
  doc["off"] = false;
  doc["nothing"];  // null
  doc["text"] = "quote \" backslash \\ newline \n tab \t";
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back(2.5);
  arr.push_back("three");
  doc["list"] = std::move(arr);
  Json nested = Json::object();
  nested["a"] = 1;
  nested["b"] = Json::array();
  doc["nested"] = std::move(nested);
  return doc;
}

}  // namespace

TEST(Json, CompactRoundTripIsByteStable) {
  const Json doc = sample_doc();
  const std::string once = doc.dump();
  const Json reparsed = Json::parse(once);
  EXPECT_EQ(reparsed.dump(), once);
}

TEST(Json, PrettyFormParsesToTheSameDocument) {
  const Json doc = sample_doc();
  const Json reparsed = Json::parse(doc.dump(2));
  EXPECT_EQ(reparsed.dump(), doc.dump());
}

TEST(Json, ObjectKeepsInsertionOrder) {
  Json doc = Json::object();
  doc["zebra"] = 1;
  doc["alpha"] = 2;
  doc["mid"] = 3;
  EXPECT_EQ(doc.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
}

TEST(Json, NumbersKeepTheirTypeThroughAReparse) {
  const Json i = Json::parse("7");
  EXPECT_TRUE(i.is_int());
  EXPECT_EQ(i.as_int(), 7);
  const Json d = Json::parse("7.0");
  EXPECT_EQ(d.type(), Json::Type::Double);
  EXPECT_DOUBLE_EQ(d.as_double(), 7.0);
  // A dumped Double reparses as Double even for integral values.
  const Json round = Json::parse(Json(2.0).dump());
  EXPECT_EQ(round.type(), Json::Type::Double);
}

TEST(Json, Uint64ValuesRoundTripExactly) {
  // A uint64 above INT64_MAX (a seed, a hash) is written and read back
  // exactly, as UInt; up to INT64_MAX it stays Int.
  const std::uint64_t max = UINT64_MAX;
  const std::uint64_t top = std::uint64_t{1} << 63;
  for (const std::uint64_t v : {max, top, top + 1, max - 1}) {
    const Json j(v);
    EXPECT_EQ(j.type(), Json::Type::UInt);
    const std::string text = j.dump();
    EXPECT_EQ(text, std::to_string(v));
    const Json back = Json::parse(text);
    EXPECT_EQ(back.type(), Json::Type::UInt) << text;
    EXPECT_TRUE(back.is_uint());
    EXPECT_FALSE(back.is_int());
    EXPECT_TRUE(back.is_number());
    EXPECT_EQ(back.as_uint(), v) << text;
    EXPECT_EQ(back.dump(), text);
    EXPECT_THROW((void)back.as_int(), std::logic_error);
  }
  const Json below = Json::parse("9223372036854775807");
  EXPECT_TRUE(below.is_int());
  EXPECT_EQ(below.as_uint(), top - 1);
  EXPECT_EQ(Json(top - 1).type(), Json::Type::Int);
  EXPECT_EQ(Json::parse("[18446744073709551615]").dump(),
            "[18446744073709551615]");
  // Negative integers are no uint; past 2^64 an integer token is a double.
  EXPECT_FALSE(Json::parse("-1").is_uint());
  EXPECT_THROW((void)Json::parse("-1").as_uint(), std::logic_error);
  EXPECT_EQ(Json::parse("18446744073709551616").type(), Json::Type::Double);
  EXPECT_EQ(Json::parse("-9223372036854775809").type(), Json::Type::Double);
}

TEST(Json, DoubleFormattingRoundTripsExactly) {
  for (double v : {0.1, 1.0 / 3.0, 2.5, 1e-7, 123456789.125,
                   -0.0078125, 3.141592653589793}) {
    const Json parsed = Json::parse(Json(v).dump());
    EXPECT_EQ(parsed.as_double(), v) << Json(v).dump();
  }
}

TEST(Json, UnicodeEscapesParse) {
  const Json j = Json::parse("\"\\u0041\\u0042\"");
  EXPECT_EQ(j.as_string(), "AB");
}

TEST(Json, MalformedInputThrows) {
  for (const char* bad :
       {"", "{", "[1,", "tru", "1 2", "{\"a\":}", "\"unterminated",
        "{\"a\" 1}", "[1 2]", "nul"}) {
    EXPECT_THROW(Json::parse(bad), std::runtime_error) << bad;
  }
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse("{\"a\":1}");
  EXPECT_THROW((void)j.as_string(), std::logic_error);
  EXPECT_THROW((void)j.as_int(), std::logic_error);
  EXPECT_EQ(j.find("a")->as_int(), 1);
  EXPECT_EQ(j.find("missing"), nullptr);
}

TEST(Json, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rdo_test_obs.json").string();
  const Json doc = sample_doc();
  rdo::obs::write_json_file(doc, path);
  const Json back = rdo::obs::read_json_file(path);
  EXPECT_EQ(back.dump(), doc.dump());
  std::filesystem::remove(path);
}

TEST(BenchReport, AccumulatesPhasesCountersGauges) {
  rdo::obs::BenchReport rep("unit_test", 1);
  double* alpha = rep.phase("alpha");
  *alpha += 1.5;
  *rep.phase("alpha") += 0.5;
  *rep.phase("beta") += 0.25;
  EXPECT_EQ(rep.phase("alpha"), alpha);  // one stable slot per name
  EXPECT_DOUBLE_EQ(*alpha, 2.0);
  rdo::obs::MetricsRegistry& m = rep.metrics();
  m.counter("bench_widgets").add();
  m.counter("bench_widgets").add(4);
  m.gauge("bench_ratio").set(0.75);
  m.gauge("bench_ratio").set(0.5);  // last write wins
  const Json doc = rep.document();
  EXPECT_EQ(doc.find("counters")->dump(), "{\"bench_widgets\":5}");
  EXPECT_EQ(doc.find("gauges")->dump(), "{\"bench_ratio\":0.5}");
  // Phases keep first-use order.
  const Json* phases = doc.find("timing")->find("phases");
  ASSERT_EQ(phases->size(), 2u);
  EXPECT_EQ(phases->at(0).find("name")->as_string(), "alpha");
  EXPECT_DOUBLE_EQ(phases->at(0).find("seconds")->as_double(), 2.0);
  EXPECT_EQ(phases->at(1).find("name")->as_string(), "beta");
}

TEST(BenchReport, DocumentValidatesAgainstSchema) {
  rdo::obs::BenchReport rep("unit_test", 99);
  rep.metrics().counter("bench_things").add(3);
  rep.metrics().gauge("bench_level").set(0.5);
  rep.results()["answer"] = 42;
  const Json doc = rep.document();
  std::string err;
  EXPECT_TRUE(rdo::obs::validate_bench_document(doc, &err)) << err;
  EXPECT_EQ(doc.find("schema_version")->as_int(),
            rdo::obs::kBenchSchemaVersion);
  EXPECT_EQ(doc.find("name")->as_string(), "unit_test");
  EXPECT_EQ(doc.find("env")->find("seed")->as_int(), 99);
  EXPECT_EQ(rep.exit_code(), 0);
}

TEST(BenchReport, ValidationCatchesBrokenDocuments) {
  rdo::obs::BenchReport rep("unit_test", 1);
  std::string err;

  Json wrong_version = rep.document();
  wrong_version["schema_version"] = 999;
  EXPECT_FALSE(rdo::obs::validate_bench_document(wrong_version, &err));

  Json no_name = rep.document();
  no_name["name"] = "";
  EXPECT_FALSE(rdo::obs::validate_bench_document(no_name, &err));

  Json bad_counters = rep.document();
  bad_counters["counters"]["oops"] = "not a number";
  EXPECT_FALSE(rdo::obs::validate_bench_document(bad_counters, &err));

  EXPECT_FALSE(rdo::obs::validate_bench_document(Json::parse("[]"), &err));
}

TEST(BenchReport, FailuresDriveTheExitCode) {
  rdo::obs::BenchReport rep("unit_test", 1);
  EXPECT_EQ(rep.exit_code(), 0);
  rep.add_failure("grid point 3", "boom");
  EXPECT_TRUE(rep.any_failure());
  EXPECT_EQ(rep.failure_count(), 1u);
  EXPECT_EQ(rep.exit_code(), 1);
  std::string err;
  const Json doc = rep.document();
  EXPECT_TRUE(rdo::obs::validate_bench_document(doc, &err)) << err;
  ASSERT_NE(doc.find("failures"), nullptr);
  EXPECT_EQ(doc.find("failures")->at(0).find("what")->as_string(), "boom");
}

TEST(BenchReport, LargestSeedIsWrittenExactlyAndValidates) {
  // rdo_experiment --seed 18446744073709551615 --json once wrote
  // "seed": -1.
  const std::uint64_t max = UINT64_MAX;
  rdo::obs::BenchReport rep("unit_test", max);
  const Json doc = Json::parse(rep.document().dump(2));
  std::string err;
  EXPECT_TRUE(rdo::obs::validate_bench_document(doc, &err)) << err;
  EXPECT_EQ(doc.find("env")->find("seed")->as_uint(), max);
  EXPECT_NE(rep.document().dump().find("\"seed\":18446744073709551615"),
            std::string::npos);

  Json negative = rep.document();
  negative["env"]["seed"] = -1;
  EXPECT_FALSE(rdo::obs::validate_bench_document(negative, &err));
}

TEST(Env, CaptureHasTheContractedKeys) {
  const Json env = rdo::obs::capture_env(7);
  EXPECT_EQ(env.find("seed")->as_int(), 7);
  EXPECT_GE(env.find("threads")->as_int(), 1);
  EXPECT_FALSE(env.find("build_type")->as_string().empty());
  EXPECT_FALSE(env.find("git_sha")->as_string().empty());
  EXPECT_EQ(env.find("kernel_isa")->as_string(),
            rdo::nn::kernel_isa_name(rdo::nn::kernel_isa()));
}

namespace {

/// Runs a small deployment under `threads` pool threads and returns the
/// deterministic sections of the resulting report.
std::string deterministic_report(int threads) {
  ThreadGuard guard(threads);

  rdo::data::SyntheticSpec spec = rdo::data::mnist_like();
  spec.train_per_class = 20;
  spec.test_per_class = 10;
  const rdo::data::SyntheticDataset ds = rdo::data::make_synthetic(spec);

  rdo::nn::Rng rng(11);
  rdo::nn::Sequential net;
  net.emplace<rdo::nn::Flatten>();
  net.emplace<rdo::quant::ActQuant>(8);
  net.emplace<rdo::nn::Dense>(28 * 28, 16, rng);
  net.emplace<rdo::nn::ReLU>();
  net.emplace<rdo::quant::ActQuant>(8);
  net.emplace<rdo::nn::Dense>(16, 10, rng);

  rdo::core::DeployOptions o;
  o.scheme = rdo::core::Scheme::VAWOStarPWT;
  o.offsets.m = 8;
  o.cell = {rdo::rram::CellKind::SLC, 200.0};
  o.variation.sigma = 0.4;
  o.lut_k_sets = 4;
  o.lut_j_cycles = 2;
  o.grad_samples = 32;
  o.pwt.epochs = 1;
  o.pwt.max_samples = 64;
  o.seed = 7;

  const rdo::core::SchemeResult res =
      rdo::core::run_scheme(net, o, ds.train(), ds.test(), /*repeats=*/3);

  rdo::obs::BenchReport rep("determinism_probe", o.seed);
  rep.results()["stats"] = rdo::core::deploy_stats_json(res.stats);
  Json per_cycle = Json::array();
  for (float a : res.per_cycle) per_cycle.push_back(static_cast<double>(a));
  rep.results()["per_cycle"] = std::move(per_cycle);
  rep.metrics().counter("bench_cycles").add(res.stats.cycles);
  rep.metrics().counter("bench_device_pulses").add(res.stats.device_pulses);
  rdo::core::add_scheme_timings(rep, res);
  for (const std::string& e : res.errors) {
    if (!e.empty()) rep.add_failure("trial", e);
  }
  return rep.deterministic_dump();
}

}  // namespace

TEST(Determinism, ReportIsByteIdenticalAcrossThreadCounts) {
  const std::string serial = deterministic_report(1);
  const std::string parallel = deterministic_report(8);
  EXPECT_EQ(serial, parallel);
  // Sanity: the probe actually ran the pipeline.
  const Json doc = Json::parse(serial);
  EXPECT_EQ(doc.find("counters")->find("bench_cycles")->as_int(), 3);
  EXPECT_GT(doc.find("counters")->find("bench_device_pulses")->as_int(), 0);
}

TEST(Determinism, TracingDoesNotPerturbTheReport) {
  // Tracing must never feed back into the computation or the report:
  // trace counters go to the trace file, not the report, and spans
  // only read the clock. The deterministic sections (which include the
  // counters) must be byte-identical with tracing on and off.
  const std::string untraced = deterministic_report(2);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rdo_test_obs_trace.json")
          .string();
  rdo::obs::trace_start(path);
  const std::string traced = deterministic_report(2);
  ASSERT_EQ(rdo::obs::trace_stop(), path);
  EXPECT_EQ(traced, untraced);
  std::filesystem::remove(path);
}

namespace {

constexpr std::int64_t kWriterTasks = 64;

/// Writes a fixed workload into `rep` from `threads` pool threads: every
/// task adds to two shared counters, sets its own gauge, observes one
/// shared histogram and times its own phase.
void concurrent_writes(rdo::obs::BenchReport& rep, int threads) {
  ThreadGuard guard(threads);
  rdo::nn::parallel_for(kWriterTasks, [&](std::int64_t begin,
                                          std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      const std::string tag = "bench_task_" + std::to_string(i);
      rdo::obs::TraceSpan t(tag.c_str(), "phase", rep.phase(tag));
      rdo::obs::MetricsRegistry& m = rep.metrics();
      m.counter("bench_tasks").add();
      m.counter("bench_task_index_sum").add(i);
      m.gauge(tag + "_value").set(0.5 * static_cast<double>(i));
      m.histogram("bench_task_seconds")
          .observe(1e-6 * static_cast<double>(i + 1));
    }
  });
}

}  // namespace

TEST(Determinism, ConcurrentReportWritersMatchASerialRun) {
  rdo::obs::BenchReport serial("bench_writers", 1);
  concurrent_writes(serial, 1);
  rdo::obs::BenchReport parallel("bench_writers", 1);
  concurrent_writes(parallel, 4);

  EXPECT_EQ(parallel.deterministic_dump(), serial.deterministic_dump());
  const Json s = serial.document();
  const Json p = parallel.document();
  EXPECT_EQ(p.find("histograms")->dump(), s.find("histograms")->dump());
  EXPECT_EQ(p.find("counters")->find("bench_tasks")->as_int(), kWriterTasks);
  EXPECT_EQ(p.find("histograms")
                ->find("bench_task_seconds")
                ->find("count")
                ->as_int(),
            kWriterTasks);
  // One slot per task; their order is first use, so it may differ.
  EXPECT_EQ(p.find("timing")->find("phases")->size(),
            static_cast<std::size_t>(kWriterTasks));
}

TEST(Json, NanAndInfinitySerializeAsNull) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json(nan).dump(), "null");
  EXPECT_EQ(Json(inf).dump(), "null");
  EXPECT_EQ(Json(-inf).dump(), "null");
  // Round trip: a document holding non-finite values stays parseable
  // (values come back as JSON null, never as a bogus literal like 1e999).
  Json doc = Json::object();
  doc["nan"] = nan;
  doc["pos_inf"] = inf;
  doc["neg_inf"] = -inf;
  doc["finite"] = 2.5;
  const Json back = Json::parse(doc.dump());
  EXPECT_TRUE(back.find("nan")->is_null());
  EXPECT_TRUE(back.find("pos_inf")->is_null());
  EXPECT_TRUE(back.find("neg_inf")->is_null());
  EXPECT_DOUBLE_EQ(back.find("finite")->as_double(), 2.5);
  EXPECT_EQ(Json::parse(back.dump()).dump(), back.dump());
}

TEST(BenchReport, HistogramPlacesSamplesInPowerOfTwoBuckets) {
  rdo::obs::BenchReport rep("unit_test", 1);
  rdo::obs::Histogram& h = rep.metrics().histogram("bench_lat_seconds");
  h.observe(2e-6);    // 2 us -> bucket 1
  h.observe(1e-3);    // 1000 us -> bucket 9
  h.observe(1.0);     // 1e6 us -> bucket 19
  h.observe(1e-7);    // sub-microsecond clamps to bucket 0
  h.observe(1e9);     // beyond the range clamps to the last bucket
  const Json doc = rep.document();
  const Json* lat = doc.find("histograms")->find("bench_lat_seconds");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->as_int(), 5);
  EXPECT_DOUBLE_EQ(lat->find("min_seconds")->as_double(), 1e-7);
  EXPECT_DOUBLE_EQ(lat->find("max_seconds")->as_double(), 1e9);
  const Json* buckets = lat->find("bucket_counts");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->size(),
            static_cast<std::size_t>(rdo::obs::kLatencyBuckets));
  std::int64_t total = 0;
  for (std::size_t i = 0; i < buckets->size(); ++i) {
    total += buckets->at(i).as_int();
  }
  EXPECT_EQ(total, 5);
  EXPECT_EQ(buckets->at(0).as_int(), 1);
  EXPECT_EQ(buckets->at(1).as_int(), 1);
  EXPECT_EQ(buckets->at(9).as_int(), 1);
  EXPECT_EQ(buckets->at(19).as_int(), 1);
  EXPECT_EQ(buckets->at(rdo::obs::kLatencyBuckets - 1).as_int(), 1);
}

TEST(BenchReport, HistogramQuantilesAreBucketMidpointsClampedToRange) {
  rdo::obs::BenchReport rep("unit_test", 1);
  rdo::obs::MetricsRegistry& m = rep.metrics();
  // All mass in one bucket: every quantile collapses to the observed
  // value because the midpoint is clamped to [min, max].
  rdo::obs::Histogram& tight_h = m.histogram("bench_tight_seconds");
  for (int i = 0; i < 100; ++i) tight_h.observe(1e-3);
  // Bind the document: find() returns a pointer into it, so calling it
  // on the temporary would dangle (caught by the ASan preset).
  const Json tight_doc = rep.document();
  const Json* tight =
      tight_doc.find("histograms")->find("bench_tight_seconds");
  ASSERT_NE(tight, nullptr);
  EXPECT_DOUBLE_EQ(tight->find("p50_seconds")->as_double(), 1e-3);
  EXPECT_DOUBLE_EQ(tight->find("p95_seconds")->as_double(), 1e-3);
  EXPECT_DOUBLE_EQ(tight->find("p99_seconds")->as_double(), 1e-3);

  // Spread mass: p50 lands on the middle sample's bucket midpoint,
  // p95/p99 on the top bucket; ordering and bounds must hold.
  rdo::obs::Histogram& spread_h = m.histogram("bench_spread_seconds");
  spread_h.observe(2e-6);
  spread_h.observe(1e-3);
  spread_h.observe(1.0);
  const Json spread_doc = rep.document();
  const Json* spread =
      spread_doc.find("histograms")->find("bench_spread_seconds");
  ASSERT_NE(spread, nullptr);
  const double p50 = spread->find("p50_seconds")->as_double();
  const double p95 = spread->find("p95_seconds")->as_double();
  const double p99 = spread->find("p99_seconds")->as_double();
  EXPECT_DOUBLE_EQ(p50, std::exp2(9.5) * 1e-6);   // bucket 9 midpoint
  EXPECT_DOUBLE_EQ(p95, std::exp2(19.5) * 1e-6);  // bucket 19 midpoint
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, spread->find("min_seconds")->as_double());
  EXPECT_LE(p99, spread->find("max_seconds")->as_double());
}

TEST(BenchReport, HistogramsAreVolatileButValidated) {
  rdo::obs::BenchReport rep("unit_test", 1);
  rep.metrics().histogram("bench_trial_seconds").observe(0.25);
  const Json doc = rep.document();
  std::string err;
  EXPECT_TRUE(rdo::obs::validate_bench_document(doc, &err)) << err;
  ASSERT_NE(doc.find("histograms"), nullptr);
  EXPECT_NE(doc.find("histograms")->find("bench_trial_seconds"), nullptr);
  // Histograms are wall-clock derived, so they are excluded from the
  // deterministic sections.
  EXPECT_EQ(rep.deterministic_dump().find("histograms"), std::string::npos);

  // The validator still accepts v1 documents (no histograms required)...
  Json v1 = rep.document();
  v1["schema_version"] = std::int64_t{1};
  EXPECT_TRUE(rdo::obs::validate_bench_document(v1, &err)) << err;
  // ...but a v2 document with a malformed histograms section fails.
  Json bad = rep.document();
  bad["histograms"] = 5;
  EXPECT_FALSE(rdo::obs::validate_bench_document(bad, &err));
  Json bad_entry = rep.document();
  bad_entry["histograms"]["bench_trial_seconds"]["bucket_counts"] = "nope";
  EXPECT_FALSE(rdo::obs::validate_bench_document(bad_entry, &err));
}

TEST(BenchReport, WriteSurfacesUnusableBenchDirWithPath) {
  // RDO_BENCH_DIR that cannot be created (a path component is a regular
  // file): write() must throw with the offending path in the message,
  // not silently write into the current directory.
  namespace fs = std::filesystem;
  const fs::path blocker =
      fs::temp_directory_path() / "rdo_bench_dir_blocker";
  { std::ofstream f(blocker); }
  const std::string dir = (blocker / "sub").string();
  const char* old = rdo::obs::env_knob("RDO_BENCH_DIR");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("RDO_BENCH_DIR", dir.c_str(), 1);

  rdo::obs::BenchReport rep("unit_test_dir_error", 1);
  try {
    (void)rep.write();
    ADD_FAILURE() << "write() succeeded into an uncreatable RDO_BENCH_DIR";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
        << e.what();
  }

  if (old != nullptr) {
    ::setenv("RDO_BENCH_DIR", saved.c_str(), 1);
  } else {
    ::unsetenv("RDO_BENCH_DIR");
  }
  fs::remove(blocker);
}
