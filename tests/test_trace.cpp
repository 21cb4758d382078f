// Execution tracing (obs/trace.h): off-by-default cost model, timed
// spans (one clock pair feeds the accumulator and the event), the
// structural validator, and the end-to-end guarantee — a traced
// deployment produces a Perfetto-loadable document with at least one
// span per deploy phase, per-layer spans, and one named track per pool
// worker.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/deploy.h"
#include "core/vawo.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/parallel.h"
#include "nn/sequential.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "sim/crossbar_executor.h"

using namespace rdo;
using rdo::obs::Json;

namespace {

struct ThreadGuard {
  explicit ThreadGuard(int n) { nn::set_thread_count(n); }
  ~ThreadGuard() { nn::set_thread_count(0); }
};

std::string temp_trace_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("rdo_test_trace_") + tag + ".json"))
      .string();
}

/// Count events per name, separating spans from counters and metadata.
std::map<std::string, int> span_counts(const Json& doc) {
  std::map<std::string, int> counts;
  const Json* evs = doc.find("traceEvents");
  for (std::size_t i = 0; i < evs->size(); ++i) {
    const Json& e = evs->at(i);
    if (e.find("ph")->as_string() == "X") {
      ++counts[e.find("name")->as_string()];
    }
  }
  return counts;
}

}  // namespace

TEST(Trace, SpansAreFreeWhenTracingIsOff) {
  // RDO_TRACE is unset under ctest, so recording never starts; a span
  // must stay inactive and stop must report nothing to write.
  ASSERT_EQ(rdo::obs::trace_stop(), "");
  rdo::obs::TraceSpan span("unit:test");
  EXPECT_FALSE(span.active());
  span.arg("ignored", 1);  // must be a no-op, not a crash
  rdo::obs::trace_counter("unit_counter", 42);
  EXPECT_EQ(rdo::obs::trace_stop(), "");
}

TEST(Trace, TimedSpanAddsToItsAccumulatorWhenTracingIsOff) {
  ASSERT_EQ(rdo::obs::trace_stop(), "");
  double seconds = 0.0;
  {
    rdo::obs::TraceSpan span("unit:timed", "unit", &seconds);
    EXPECT_FALSE(span.active());
    while (span.seconds() <= 0.0) {
    }
  }
  EXPECT_GT(seconds, 0.0);
  // nullptr: timed, with nowhere to add.
  const rdo::obs::TraceSpan timed("unit:timed", "unit", nullptr);
  EXPECT_GE(timed.seconds(), 0.0);
}

TEST(Trace, TimedSpanAddsToItsAccumulatorWhenAnExceptionUnwinds) {
  double seconds = 0.0;
  EXPECT_THROW(
      {
        rdo::obs::TraceSpan span("unit:throws", "unit", &seconds);
        while (span.seconds() <= 0.0) {
        }
        throw std::runtime_error("unwind");
      },
      std::runtime_error);
  EXPECT_GT(seconds, 0.0);
}

TEST(Trace, TimedSpanEventAndAccumulatorShareOneClockPair) {
  const std::string path = temp_trace_path("timed");
  double seconds = 0.0;
  rdo::obs::trace_start(path);
  {
    rdo::obs::TraceSpan span("unit:timed", "unit", &seconds);
    EXPECT_TRUE(span.active());
    while (span.seconds() < 1e-4) {
    }
  }
  ASSERT_EQ(rdo::obs::trace_stop(), path);
  const Json doc = rdo::obs::read_json_file(path);
  const Json* evs = doc.find("traceEvents");
  int found = 0;
  for (std::size_t i = 0; i < evs->size(); ++i) {
    const Json& e = evs->at(i);
    if (e.find("name")->as_string() != "unit:timed") continue;
    ++found;
    // `dur` is in microseconds; both sides come from the same two reads.
    EXPECT_EQ(std::llround(e.find("dur")->as_double() * 1e3),
              std::llround(seconds * 1e9));
  }
  EXPECT_EQ(found, 1);
  std::filesystem::remove(path);
}

TEST(Trace, ValidatorCatchesStructuralViolations) {
  std::string err;
  EXPECT_FALSE(rdo::obs::validate_trace_document(Json::parse("[]"), &err));
  EXPECT_FALSE(
      rdo::obs::validate_trace_document(Json::parse("{}"), &err));
  // An X event without dur must be rejected.
  Json doc = Json::parse(
      R"({"traceEvents":[{"name":"a","ph":"X","ts":1.0,"pid":1,"tid":0}]})");
  EXPECT_FALSE(rdo::obs::validate_trace_document(doc, &err));
  // Same event with a dur passes.
  Json ok = Json::parse(
      R"({"traceEvents":[{"name":"a","ph":"X","ts":1.0,"dur":2.0,)"
      R"("pid":1,"tid":0}]})");
  EXPECT_TRUE(rdo::obs::validate_trace_document(ok, &err)) << err;
  // Counter events need args.
  Json counter = Json::parse(
      R"({"traceEvents":[{"name":"c","ph":"C","ts":1.0,"pid":1,"tid":0}]})");
  EXPECT_FALSE(rdo::obs::validate_trace_document(counter, &err));
}

TEST(Trace, StartStopWritesAndSecondStopIsIdempotent) {
  const std::string path = temp_trace_path("startstop");
  rdo::obs::trace_start(path);
  {
    rdo::obs::TraceSpan span("unit:scope");
    EXPECT_TRUE(span.active());
    span.arg("k", 7);
  }
  EXPECT_EQ(rdo::obs::trace_stop(), path);
  EXPECT_EQ(rdo::obs::trace_stop(), "");  // already stopped
  const Json doc = rdo::obs::read_json_file(path);
  std::string err;
  EXPECT_TRUE(rdo::obs::validate_trace_document(doc, &err)) << err;
  EXPECT_EQ(span_counts(doc)["unit:scope"], 1);
  std::filesystem::remove(path);
}

TEST(Trace, DeploymentTraceCoversEveryPhaseAndWorkerTrack) {
  ThreadGuard guard(4);
  // Spawn the helper workers before recording: worker tracks must stay
  // registered across trace_start (bindings outlive individual traces).
  nn::parallel_for(1024, [](std::int64_t, std::int64_t) {}, /*grain=*/1);

  data::SyntheticSpec spec = data::mnist_like();
  spec.height = spec.width = 8;
  spec.classes = 4;
  spec.train_per_class = 16;
  spec.test_per_class = 8;
  spec.seed = 5;
  const data::SyntheticDataset ds = data::make_synthetic(spec);
  nn::Rng rng(9);
  nn::Sequential net;
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(64, 16, rng);
  net.emplace<nn::ReLU>();
  net.emplace<nn::Dense>(16, 4, rng);

  core::DeployOptions o;
  o.scheme = core::Scheme::VAWOStarPWT;  // covers VAWO, program, PWT, eval
  o.offsets.m = 8;
  o.cell = {rram::CellKind::SLC, 200.0};
  o.variation.sigma = 0.4;
  o.lut_k_sets = 4;
  o.lut_j_cycles = 2;
  o.grad_samples = 32;
  o.pwt.epochs = 1;
  o.pwt.max_samples = 32;
  o.seed = 3;

  const std::string path = temp_trace_path("deploy");
  rdo::obs::trace_start(path);
  (void)core::run_scheme(net, o, ds.train(), ds.test(), /*repeats=*/2);
  // A dispatched loop inside the recording window guarantees pool spans
  // and counter samples even if the tiny deployment above ran its loops
  // inline.
  nn::parallel_for(1024, [](std::int64_t, std::int64_t) {}, /*grain=*/1);
  // Each helper binds its track when its thread starts, which the OS may
  // delay past a short deployment. Four one-item chunks that each wait
  // until all four have started must run on four distinct threads, so
  // every helper is running (and bound) before the trace stops.
  std::atomic<int> entered{0};
  nn::parallel_for(
      4,
      [&entered](std::int64_t, std::int64_t) {
        entered.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (entered.load() < 4 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      },
      /*grain=*/1);
  {
    // Device-level layer: its build span.
    quant::LayerQuant lq;
    lq.bits = 8;
    lq.rows = 16;
    lq.cols = 8;
    lq.scale = 0.01f;
    lq.zero = 128;
    lq.q.assign(static_cast<std::size_t>(lq.rows * lq.cols), 100);
    const core::VawoResult assign = core::plain_layer(lq, 8);
    sim::ExecutorConfig cfg;
    cfg.xbar.rows = 16;
    cfg.xbar.cols = 32;
    cfg.xbar.cell = {rram::CellKind::SLC, 200.0};
    cfg.xbar.active_wordlines = 4;
    cfg.offsets.m = 8;
    const sim::CrossbarLayerExecutor exec(lq, assign, cfg);
  }
  ASSERT_EQ(rdo::obs::trace_stop(), path);

  const Json doc = rdo::obs::read_json_file(path);
  std::string err;
  ASSERT_TRUE(rdo::obs::validate_trace_document(doc, &err)) << err;

  // >= 1 span per deploy phase; per-layer spans from both the deploy
  // pipeline (two Dense layers x two cycles) and the device level.
  const std::map<std::string, int> spans = span_counts(doc);
  for (const char* phase :
       {"deploy:lut_build", "deploy:prepare", "deploy:vawo_solve",
        "deploy:program", "deploy:tune", "deploy:evaluate", "pwt:epoch",
        "pwt:batch", "pool:parallel_for", "pool:chunk"}) {
    EXPECT_GE(spans.count(phase) ? spans.at(phase) : 0, 1) << phase;
  }
  EXPECT_GE(spans.at("vawo:layer"), 2);
  EXPECT_GE(spans.at("program:layer"), 4);  // 2 layers x 2 cycles
  EXPECT_GE(spans.at("sim:build_layer"), 1);

  // Counter tracks and thread metadata: one named track per pool worker
  // (4 threads -> 3 helpers), plus the main thread; tids unique.
  std::map<std::string, std::string> tracks;  // name -> tid dump
  std::map<std::string, int> counters;
  const Json* evs = doc.find("traceEvents");
  for (std::size_t i = 0; i < evs->size(); ++i) {
    const Json& e = evs->at(i);
    const std::string ph = e.find("ph")->as_string();
    if (ph == "M" && e.find("name")->as_string() == "thread_name") {
      const std::string name = e.find("args")->find("name")->as_string();
      EXPECT_EQ(tracks.count(name), 0u) << "duplicate track " << name;
      tracks[name] = e.find("tid")->dump();
    } else if (ph == "C") {
      ++counters[e.find("name")->as_string()];
    }
  }
  EXPECT_EQ(tracks.count("main"), 1u);
  for (const char* worker :
       {"pool-worker-1", "pool-worker-2", "pool-worker-3"}) {
    EXPECT_EQ(tracks.count(worker), 1u) << worker;
  }
  EXPECT_GE(counters["device_pulses"], 2);  // one per program_cycle
  EXPECT_GE(counters["pool_chunks_executed"], 1);
  EXPECT_GE(counters["pool_chunks_stolen"], 1);
  std::filesystem::remove(path);
}
