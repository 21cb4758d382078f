// Deployment-as-a-service: protocol parsing, the plan LRU, backend
// pooling, admission control and end-to-end parity of served evaluate()
// against a directly driven EffectiveWeightBackend.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <cstdint>
#include <fstream>
#include <latch>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.h"
#include "core/check.h"
#include "core/plan.h"
#include "nn/dense.h"
#include "nn/sequential.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/server.h"

using namespace rdo;
using obs::Json;

namespace {

/// Small deterministic service fixture: one Dense net, 20 train / 10
/// test samples, a cheap LUT protocol so per-request compilation stays
/// fast.
struct ServeFixture {
  std::unique_ptr<nn::Sequential> net;
  nn::Tensor train_images{{20, 6}};
  std::vector<int> train_labels;
  nn::Tensor test_images{{10, 6}};
  std::vector<int> test_labels;
  core::DeployOptions base;

  ServeFixture() {
    nn::Rng rng(5);
    net = std::make_unique<nn::Sequential>();
    net->emplace<nn::Dense>(6, 4, rng);
    for (std::int64_t i = 0; i < train_images.size(); ++i) {
      train_images[i] = 0.15f * static_cast<float>(i % 11) - 0.7f;
    }
    for (int i = 0; i < 20; ++i) train_labels.push_back(i % 4);
    for (std::int64_t i = 0; i < test_images.size(); ++i) {
      test_images[i] = 0.15f * static_cast<float>((i + 3) % 11) - 0.7f;
    }
    for (int i = 0; i < 10; ++i) test_labels.push_back((i + 1) % 4);
    base.weight_bits = 4;
    base.offsets.m = 2;
    base.offsets.offset_bits = 4;
    base.lut_k_sets = 2;
    base.lut_j_cycles = 2;
    base.grad_samples = 8;
    base.seed = 5;
  }

  [[nodiscard]] nn::DataView train() const {
    return {&train_images, &train_labels};
  }
  [[nodiscard]] nn::DataView test() const {
    return {&test_images, &test_labels};
  }

  [[nodiscard]] serve::InferenceService make_service(
      serve::ServeConfig cfg = {}) const {
    return {*net, train(), test(), base, cfg};
  }
};

Json reply(serve::InferenceService& svc, const std::string& line) {
  return Json::parse(svc.handle_line(line));
}

/// Send `line` from `n` client threads released together, returning
/// each thread's parsed response.
std::vector<Json> concurrent_replies(serve::InferenceService& svc,
                                     const std::string& line, int n) {
  std::vector<std::string> out(static_cast<std::size_t>(n));
  std::latch start(n);
  std::vector<std::thread> clients;
  for (int i = 0; i < n; ++i) {
    clients.emplace_back([&, i] {
      start.arrive_and_wait();
      out[static_cast<std::size_t>(i)] = svc.handle_line(line);
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<Json> replies;
  for (const std::string& r : out) replies.push_back(Json::parse(r));
  return replies;
}

void expect_bad_request(const Json& r, const std::string& line) {
  ASSERT_NE(r.find("ok"), nullptr) << line;
  EXPECT_FALSE(r.find("ok")->as_bool()) << line;
  const Json* err = r.find("error");
  ASSERT_NE(err, nullptr) << line;
  EXPECT_EQ(err->find("code")->as_string(), "bad_request") << line;
}

}  // namespace

TEST(Serve, PingEchoesIdAndStatsCountRequests) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();

  const Json pong = reply(svc, R"({"id": "a1", "op": "ping"})");
  EXPECT_EQ(pong.find("id")->as_string(), "a1");
  EXPECT_TRUE(pong.find("ok")->as_bool());
  EXPECT_TRUE(pong.find("result")->find("pong")->as_bool());

  const Json stats = reply(svc, R"({"id": 2, "op": "stats"})");
  EXPECT_EQ(stats.find("id")->as_int(), 2);
  const Json* r = stats.find("result");
  EXPECT_EQ(r->find("requests")->as_int(), 2);
  EXPECT_EQ(r->find("ok")->as_int(), 1);  // snapshot before this reply
  EXPECT_EQ(r->find("cached_plans")->as_int(), 0);
  EXPECT_EQ(r->find("pooled_backends")->as_int(), 0);
  EXPECT_GE(r->find("uptime_seconds")->as_double(), 0.0);
  EXPECT_EQ(r->find("plan_hit_rate")->as_double(), 0.0);
  // The nested live-registry snapshot is structurally valid and agrees
  // with the flat counters.
  const Json* metrics = r->find("metrics");
  ASSERT_NE(metrics, nullptr);
  std::string err;
  EXPECT_TRUE(obs::validate_metrics_json(*metrics, &err)) << err;
  EXPECT_EQ(metrics->find("counters")->find("serve_requests")->as_int(), 2);
  EXPECT_EQ(
      metrics->find("gauges")->find("serve_active_requests")->as_double(),
      0.0);
  const Json* hist =
      metrics->find("histograms")->find("serve_request_seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->as_int(), 1);  // snapshot mid-request #2
}

TEST(Serve, StatsReflectsKnownRequestAndCacheCounts) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();
  const std::string eval_line =
      R"({"op": "evaluate", "data": {"split": "test", "count": 4}})";
  const Json first = reply(svc, eval_line);
  ASSERT_TRUE(first.find("ok")->as_bool());
  const Json second = reply(svc, eval_line);
  ASSERT_TRUE(second.find("ok")->as_bool());
  expect_bad_request(reply(svc, "nope"), "nope");

  const Json stats = reply(svc, R"({"op": "stats"})");
  const Json* r = stats.find("result");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->find("requests")->as_int(), 4);
  EXPECT_EQ(r->find("ok")->as_int(), 2);
  EXPECT_EQ(r->find("bad_request")->as_int(), 1);
  EXPECT_EQ(r->find("plan_hits")->as_int(), 1);
  EXPECT_EQ(r->find("plan_misses")->as_int(), 1);
  EXPECT_EQ(r->find("cached_plans")->as_int(), 1);
  EXPECT_EQ(r->find("pooled_backends")->as_int(), 1);
  EXPECT_EQ(r->find("plan_hit_rate")->as_double(), 0.5);
  EXPECT_EQ(r->find("active")->as_int(), 0);
  EXPECT_EQ(r->find("queued")->as_int(), 0);
  const Json* counters = r->find("metrics")->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("serve_backend_creates")->as_int(), 1);
  EXPECT_EQ(counters->find("serve_backend_reuses")->as_int(), 1);
}

TEST(Serve, EvaluateMatchesDirectBackendBitIdentically) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();

  const Json r = reply(svc,
                       R"({"id": 1, "op": "evaluate",)"
                       R"( "config": {"scheme": "VAWO*", "sigma": 0.6},)"
                       R"( "cycle": 2, "data": {"split": "test"}})");
  ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
  const Json* res = r.find("result");
  EXPECT_EQ(res->find("samples")->as_int(), 10);
  EXPECT_EQ(res->find("cycle")->as_int(), 2);
  EXPECT_FALSE(res->find("cached_plan")->as_bool());

  // Drive the pipeline directly with the same effective options.
  core::DeployOptions opt = f.base;
  opt.scheme = core::Scheme::VAWOStar;
  opt.variation.sigma = 0.6;
  const core::DeploymentPlan plan = core::compile_plan(*f.net, opt, f.train());
  core::EffectiveWeightBackend backend(plan, *f.net);
  backend.program_cycle(2);
  backend.tune(f.train());
  const float direct = backend.evaluate(f.test(), 64);

  EXPECT_EQ(res->find("accuracy")->as_double(),
            static_cast<double>(direct));

  // Fingerprint on the wire matches plan_fingerprint of the same config.
  const std::uint64_t fp = core::plan_fingerprint(*f.net, opt, f.train());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fp));
  EXPECT_EQ(res->find("plan_fingerprint")->as_string(), hex);

  // Same request again: plan LRU hit, pooled backend reused, identical
  // accuracy.
  const Json r2 = reply(svc,
                        R"({"id": 2, "op": "evaluate",)"
                        R"( "config": {"scheme": "VAWO*", "sigma": 0.6},)"
                        R"( "cycle": 2, "data": {"split": "test"}})");
  ASSERT_TRUE(r2.find("ok")->as_bool()) << r2.dump();
  EXPECT_TRUE(r2.find("result")->find("cached_plan")->as_bool());
  EXPECT_EQ(r2.find("result")->find("accuracy")->as_double(),
            r.find("result")->find("accuracy")->as_double());
  const serve::ServeCounters c = svc.counters();
  EXPECT_EQ(c.plan_misses, 1);
  EXPECT_EQ(c.plan_hits, 1);
  EXPECT_EQ(c.backend_creates, 1);
  EXPECT_EQ(c.backend_reuses, 1);
}

TEST(Serve, DiskPlanCacheWarmsAFreshServiceInstance) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "rdo_serve_plan_cache";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ::setenv("RDO_PLAN_CACHE_DIR", dir.string().c_str(), 1);

  const ServeFixture f;
  const std::string line =
      R"({"op": "evaluate", "data": {"split": "test", "count": 4}})";
  {
    serve::InferenceService cold = f.make_service();
    const Json r = reply(cold, line);
    ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
    EXPECT_FALSE(r.find("result")->find("plan_from_disk_cache")->as_bool());
  }
  {
    // A fresh service (empty LRU) must warm-start from the on-disk plan:
    // not an LRU hit, but loaded instead of recompiled.
    serve::InferenceService warm = f.make_service();
    const Json r = reply(warm, line);
    ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
    EXPECT_FALSE(r.find("result")->find("cached_plan")->as_bool());
    EXPECT_TRUE(r.find("result")->find("plan_from_disk_cache")->as_bool());
  }
  ::unsetenv("RDO_PLAN_CACHE_DIR");
  fs::remove_all(dir);
}

// A burst of identical cold requests compiles (or loads) the plan once:
// the first request owns the compile, the other three wait for it and
// count as plan hits. Every reply equals the same request on a serial
// service, with and without a plan cache directory. The larger LUT
// protocol makes the compile (milliseconds) outlast the clients'
// start-up skew, so the three really wait rather than find the plan hot.
TEST(Serve, ConcurrentIdenticalColdRequestsCompileOnce) {
  namespace fs = std::filesystem;
  const ServeFixture f;
  const std::string line =
      R"({"op": "evaluate", "config": {"scheme": "VAWO*", "sigma": 0.6,)"
      R"( "lut_k_sets": 64, "lut_j_cycles": 32}, "cycle": 1,)"
      R"( "data": {"split": "test", "count": 8}})";
  serve::InferenceService serial = f.make_service();
  const Json expected = reply(serial, line);
  ASSERT_TRUE(expected.find("ok")->as_bool()) << expected.dump();
  const Json* want = expected.find("result");

  const fs::path dir =
      fs::temp_directory_path() / "rdo_serve_single_flight_cache";
  for (const bool disk_cache : {false, true}) {
    SCOPED_TRACE(disk_cache ? "with RDO_PLAN_CACHE_DIR" : "no plan cache");
    if (disk_cache) {
      fs::remove_all(dir);
      fs::create_directories(dir);
      ::setenv("RDO_PLAN_CACHE_DIR", dir.string().c_str(), 1);
    }
    serve::InferenceService svc = f.make_service();
    for (const Json& r : concurrent_replies(svc, line, 4)) {
      ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
      const Json* got = r.find("result");
      EXPECT_EQ(got->find("plan_fingerprint")->as_string(),
                want->find("plan_fingerprint")->as_string());
      EXPECT_EQ(got->find("accuracy")->as_double(),
                want->find("accuracy")->as_double());
      EXPECT_FALSE(got->find("plan_from_disk_cache")->as_bool());
    }
    const serve::ServeCounters c = svc.counters();
    EXPECT_EQ(c.plan_misses, 1);
    EXPECT_EQ(c.plan_hits, 3);
    EXPECT_EQ(c.ok, 4);
    EXPECT_EQ(svc.cached_plans(), 1u);
    EXPECT_EQ(svc.compiling_plans(), 0u);
    if (disk_cache) {
      ::unsetenv("RDO_PLAN_CACHE_DIR");
      fs::remove_all(dir);
    }
  }
}

// A compile that throws fails every request waiting on it with the same
// typed error, and is not kept: nothing is cached or left in flight, and
// the next request compiles again and fails the same way. The service's
// base options name an unknown optimizer pass, which compile_plan
// rejects only after the whole solve (requests cannot name one: the
// protocol refuses it), so the failure comes late enough for the other
// clients to be waiting on it.
TEST(Serve, FailedCompileReachesEveryWaiterAndIsNotKept) {
  const ServeFixture f;
  core::DeployOptions base = f.base;
  base.opt_passes = "no_such_pass";
  serve::InferenceService svc(*f.net, f.train(), f.test(), base, {});
  const std::string line =
      R"({"op": "evaluate", "config": {"lut_k_sets": 64,)"
      R"( "lut_j_cycles": 32}, "data": {"split": "test", "count": 4}})";

  const std::vector<Json> burst = concurrent_replies(svc, line, 4);
  const std::string message =
      burst.front().find("error")->find("message")->as_string();
  EXPECT_NE(message.find("no_such_pass"), std::string::npos) << message;
  for (const Json& r : burst) {
    ASSERT_FALSE(r.find("ok")->as_bool()) << r.dump();
    EXPECT_EQ(r.find("error")->find("code")->as_string(), "internal");
    EXPECT_EQ(r.find("error")->find("message")->as_string(), message);
  }
  EXPECT_EQ(svc.compiling_plans(), 0u);
  EXPECT_EQ(svc.cached_plans(), 0u);

  const Json again = reply(svc, line);
  ASSERT_FALSE(again.find("ok")->as_bool()) << again.dump();
  EXPECT_EQ(again.find("error")->find("code")->as_string(), "internal");
  EXPECT_EQ(again.find("error")->find("message")->as_string(), message);

  const serve::ServeCounters c = svc.counters();
  EXPECT_EQ(c.internal, 5);
  EXPECT_EQ(c.plan_misses, 0);
  EXPECT_EQ(c.plan_hits, 0);
  EXPECT_EQ(svc.compiling_plans(), 0u);
  EXPECT_EQ(svc.cached_plans(), 0u);
}

// An unusable RDO_SLOW_REQUEST_MS leaves the slow-request log off and
// says so; a valid value is taken silently.
TEST(Serve, InvalidSlowRequestThresholdIsRefusedWithAWarning) {
  const ServeFixture f;
  const auto construct_and_log = [&](const char* value) {
    std::FILE* sink = std::tmpfile();
    if (sink == nullptr) {
      ADD_FAILURE() << "tmpfile() failed";
      return std::make_pair(std::string(), std::int64_t{-1});
    }
    ::setenv("RDO_SLOW_REQUEST_MS", value, 1);
    obs::log_set_sink(sink);
    obs::log_set_format(obs::LogFormat::Text);
    obs::log_set_level(obs::LogLevel::Info);
    serve::InferenceService svc = f.make_service();
    const Json r = reply(svc, R"({"op": "ping"})");
    obs::log_set_sink(nullptr);
    ::unsetenv("RDO_SLOW_REQUEST_MS");
    EXPECT_TRUE(r.find("ok")->as_bool());
    std::rewind(sink);
    std::string content;
    for (int c = 0; (c = std::fgetc(sink)) != EOF;) {
      content.push_back(static_cast<char>(c));
    }
    std::fclose(sink);
    return std::make_pair(content, svc.counters().slow_requests);
  };
  for (const char* bad : {"abc", "-5", "nan", "12ms"}) {
    const auto [text, slow] = construct_and_log(bad);
    EXPECT_NE(text.find("RDO_SLOW_REQUEST_MS"), std::string::npos) << bad;
    EXPECT_NE(text.find(std::string("value=") + bad), std::string::npos)
        << text;
    EXPECT_EQ(slow, 0) << bad;  // the log stayed off
  }
  const auto [text, slow] = construct_and_log("0");
  EXPECT_EQ(text.find("RDO_SLOW_REQUEST_MS"), std::string::npos) << text;
  EXPECT_EQ(slow, 1);  // threshold 0: every request is slow
}

TEST(Serve, InlineDataMatchesSplitSlice) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();

  const Json slice_r = reply(
      svc,
      R"({"id": 2, "op": "evaluate",)"
      R"( "data": {"split": "test", "offset": 0, "count": 6}})");
  ASSERT_TRUE(slice_r.find("ok")->as_bool()) << slice_r.dump();

  // First 6 test samples shipped inline, flat and as 2x3 samples: both
  // run in the registered sample shape.
  for (const char* shape : {"[6, 6]", "[6, 2, 3]"}) {
    std::ostringstream req;
    req << R"({"id": 1, "op": "evaluate", "data": {"shape": )" << shape
        << R"(, "images": [)";
    for (std::int64_t i = 0; i < 36; ++i) {
      if (i > 0) req << ", ";
      req << static_cast<double>(f.test_images[i]);
    }
    req << R"(], "labels": [)";
    for (int i = 0; i < 6; ++i) {
      if (i > 0) req << ", ";
      req << f.test_labels[static_cast<std::size_t>(i)];
    }
    req << "]}}";
    const Json inline_r = reply(svc, req.str());
    ASSERT_TRUE(inline_r.find("ok")->as_bool()) << inline_r.dump();
    EXPECT_EQ(inline_r.find("result")->find("accuracy")->as_double(),
              slice_r.find("result")->find("accuracy")->as_double())
        << shape;
    EXPECT_EQ(inline_r.find("result")->find("samples")->as_int(), 6);
  }
}

TEST(Serve, InlineLabelWithoutALogitFailsAndServiceGoesOn) {
  // The protocol admits any label below its class ceiling; one the
  // network has no logit for (the fixture has 4) reaches the loss, whose
  // always-on bounds check refuses it in every build.
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();
  const std::string head =
      R"({"id": 1, "op": "evaluate", "data": {"shape": [1, 6],)"
      R"( "images": [0, 0, 0, 0, 0, 0], "labels": )";
  const Json bad = reply(svc, head + "[4]}}");
  ASSERT_NE(bad.find("ok"), nullptr) << bad.dump();
  EXPECT_FALSE(bad.find("ok")->as_bool()) << bad.dump();
  EXPECT_NE(bad.find("error")->find("message")->as_string().find(
                "BOUNDS(label)"),
            std::string::npos)
      << bad.dump();
  const Json good = reply(svc, head + "[3]}}");
  EXPECT_TRUE(good.find("ok")->as_bool()) << good.dump();
}

TEST(Serve, LruEvictsLeastRecentlyUsedPlan) {
  const ServeFixture f;
  serve::ServeConfig cfg;
  cfg.max_plans = 2;
  serve::InferenceService svc = f.make_service(cfg);

  const auto eval_sigma = [&](const char* sigma) {
    const Json r = reply(
        svc, std::string(R"({"id": 1, "op": "evaluate", "config": )") +
                 R"({"sigma": )" + sigma +
                 R"(}, "data": {"split": "test", "count": 4}})");
    ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
  };
  eval_sigma("0.3");
  eval_sigma("0.5");
  eval_sigma("0.7");  // evicts the 0.3 plan
  EXPECT_EQ(svc.cached_plans(), 2u);
  serve::ServeCounters c = svc.counters();
  EXPECT_EQ(c.plan_misses, 3);
  EXPECT_EQ(c.plan_evictions, 1);

  eval_sigma("0.5");  // still hot: most recently used before 0.7
  EXPECT_EQ(svc.counters().plan_hits, 1);
  eval_sigma("0.3");  // was evicted: recompiled
  c = svc.counters();
  EXPECT_EQ(c.plan_misses, 4);
  EXPECT_EQ(c.plan_evictions, 2);
  EXPECT_EQ(svc.cached_plans(), 2u);
}

TEST(Serve, AdmissionShedsWhenActiveAndQueueAreFull) {
  const ServeFixture f;
  serve::ServeConfig cfg;
  cfg.max_active = 1;
  cfg.max_queued = 0;
  serve::InferenceService svc = f.make_service(cfg);

  std::optional<serve::AdmissionTicket> holder;
  holder.emplace(svc.gate());
  ASSERT_TRUE(holder->admitted());

  const Json r = reply(svc, R"({"id": 9, "op": "evaluate"})");
  EXPECT_FALSE(r.find("ok")->as_bool());
  EXPECT_EQ(r.find("error")->find("code")->as_string(), "overloaded");
  EXPECT_EQ(r.find("id")->as_int(), 9);
  EXPECT_EQ(svc.counters().overloaded, 1);

  // Ping and stats are not admission-gated: the control plane stays
  // responsive under load.
  const Json ping = reply(svc, R"({"op": "ping"})");
  EXPECT_TRUE(ping.find("ok")->as_bool());

  holder.reset();
  const Json ok = reply(svc, R"({"id": 10, "op": "evaluate"})");
  EXPECT_TRUE(ok.find("ok")->as_bool()) << ok.dump();
}

TEST(Serve, QueuedRequestProceedsWhenSlotFrees) {
  const ServeFixture f;
  serve::ServeConfig cfg;
  cfg.max_active = 1;
  cfg.max_queued = 1;
  serve::InferenceService svc = f.make_service(cfg);

  std::optional<serve::AdmissionTicket> holder;
  holder.emplace(svc.gate());
  ASSERT_TRUE(holder->admitted());

  std::string queued_response;
  std::thread waiter([&] {
    queued_response = svc.handle_line(R"({"id": "q", "op": "evaluate"})");
  });
  // Wait until the request is parked in the bounded queue, then free the
  // slot it is waiting for.
  while (svc.gate().queued() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  holder.reset();
  waiter.join();

  const Json r = Json::parse(queued_response);
  EXPECT_TRUE(r.find("ok")->as_bool()) << queued_response;
  EXPECT_EQ(svc.counters().overloaded, 0);
  EXPECT_EQ(svc.gate().active(), 0);
  EXPECT_EQ(svc.gate().queued(), 0);
}

TEST(Serve, MalformedRequestsGetTypedBadRequestErrors) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();
  const std::vector<std::string> bad = {
      "not json at all",
      "[1, 2, 3]",
      R"({"op": "reboot"})",
      R"({"op": "ping", "extra": 1})",
      R"({"id": {"nested": true}, "op": "ping"})",
      R"({"op": "evaluate", "config": {"voltage": 5}})",
      R"({"op": "evaluate", "config": {"scheme": "bogus"}})",
      R"({"op": "evaluate", "config": {"sigma": -1}})",
      R"({"op": "evaluate", "config": {"cell": "MLC2", "weight_bits": 3}})",
      R"({"op": "evaluate", "data": {"split": "validation"}})",
      R"({"op": "evaluate", "data": {"split": "test", "offset": 99}})",
      R"({"op": "evaluate", "data": {"split": "test", "count": 99}})",
      R"({"op": "evaluate", "data": {"shape": [2, 6], "images": [0.0],)"
      R"( "labels": [0, 1]}})",
      // Samples of 5 values where the registered data's hold 6.
      R"({"op": "evaluate", "data": {"shape": [2, 5], "images": [0, 0, 0,)"
      R"( 0, 0, 0, 0, 0, 0, 0], "labels": [0, 1]}})",
      // Finite as a double, +-inf as a float.
      R"({"op": "evaluate", "data": {"shape": [1, 6], "images": [1e39, 0,)"
      R"( 0, 0, 0, 0], "labels": [0]}})",
      R"({"op": "evaluate", "data": {"shape": [1, 6], "images": [0, 0, 0,)"
      R"( 0, 0, -1e39], "labels": [0]}})",
      R"({"op": "evaluate", "batch": 0})",
      R"({"op": "evaluate", "config": {"opt_passes": "bogus_pass"}})",
      R"({"op": "evaluate", "config": {"opt_passes": 3}})",
      R"({"op": "evaluate", "config": )"
      R"({"opt_passes": "color_offset_registers,color_offset_registers"}})",
      R"({"op": "evaluate", "config": {"lut_k_sets": 0}})",
      R"({"op": "evaluate", "config": )"
      R"({"lut_k_sets": 65536, "lut_j_cycles": 65536}})",
      R"({"op": "evaluate", "config": )"
      R"({"lut_k_sets": 1048576, "lut_j_cycles": 2}})",
      // A 2^17- or 2^30-entry VAWO table per compile.
      R"({"op": "evaluate", "config": {"offset_bits": 17}})",
      R"({"op": "evaluate", "config": {"offset_bits": 30}})",
      // offset + count overflows int64.
      R"({"op": "evaluate", "data": {"split": "test", "offset": 1,)"
      R"( "count": 9223372036854775807}})",
  };
  for (const std::string& line : bad) {
    expect_bad_request(reply(svc, line), line);
  }
  const serve::ServeCounters c = svc.counters();
  EXPECT_EQ(c.bad_request, static_cast<std::int64_t>(bad.size()));
  EXPECT_EQ(c.ok, 0);
  // Nothing malformed ever reached the pipeline.
  EXPECT_EQ(c.plan_misses, 0);
  EXPECT_EQ(svc.cached_plans(), 0u);
}

TEST(Serve, SeedsUpToTwoToThe64MinusOneAreAccepted) {
  // DeployOptions::seed and rdo_experiment --seed take any uint64; the
  // protocol's "seed" key takes the same range.
  const ServeFixture f;
  const std::uint64_t max = UINT64_MAX;
  const serve::ServeRequest req = serve::parse_request(
      Json::parse(R"({"op": "evaluate",)"
                  R"( "config": {"seed": 18446744073709551615}})"),
      f.base);
  EXPECT_EQ(req.options.seed, max);

  serve::InferenceService svc = f.make_service();
  const Json r = reply(svc,
                       R"({"id": 1, "op": "evaluate",)"
                       R"( "config": {"scheme": "VAWO*",)"
                       R"( "seed": 18446744073709551615},)"
                       R"( "data": {"split": "test"}})");
  ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
  core::DeployOptions opt = f.base;
  opt.scheme = core::Scheme::VAWOStar;
  opt.seed = max;
  const core::DeploymentPlan plan = core::compile_plan(*f.net, opt, f.train());
  core::EffectiveWeightBackend backend(plan, *f.net);
  backend.program_cycle(0);
  backend.tune(f.train());
  EXPECT_EQ(r.find("result")->find("accuracy")->as_double(),
            static_cast<double>(backend.evaluate(f.test(), 64)));

  for (const char* seed : {"-1", "18446744073709551616", "1.5", "\"7\""}) {
    const std::string line =
        std::string(R"({"op": "evaluate", "config": {"seed": )") + seed +
        "}}";
    expect_bad_request(reply(svc, line), line);
  }
}

TEST(Serve, BaseOptionsFailingCheckOptionsFailAtConstruction) {
  const ServeFixture f;
  core::DeployOptions base = f.base;
  base.offsets.offset_bits = 17;
  EXPECT_THROW(serve::InferenceService(*f.net, f.train(), f.test(), base, {}),
               core::ContractViolation);
}

TEST(Serve, OptPassesOverrideCompilesDistinctPlan) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();
  const Json plain = reply(
      svc, R"({"op": "evaluate", "data": {"split": "test", "count": 4}})");
  ASSERT_TRUE(plain.find("ok")->as_bool()) << plain.dump();
  const Json opt = reply(
      svc,
      R"({"op": "evaluate", "config": {"opt_passes": )"
      R"("color_offset_registers"}, "data": {"split": "test", "count": 4}})");
  ASSERT_TRUE(opt.find("ok")->as_bool()) << opt.dump();
  // The pass list is part of the plan cache key: the override compiled
  // (and cached) a second, distinct plan.
  EXPECT_EQ(svc.cached_plans(), 2u);
  EXPECT_EQ(svc.counters().plan_misses, 2);
}

TEST(Serve, BackendPoolIsKeyedByCycle) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();
  const auto eval_cycle = [&](const char* cycle) {
    const Json r = reply(
        svc, std::string(R"({"op": "evaluate", "cycle": )") + cycle + "}");
    ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
  };
  eval_cycle("0");
  eval_cycle("0");  // same (plan, cycle): pooled backend, no reprogram
  eval_cycle("1");  // different cycle: distinct programmed state
  const serve::ServeCounters c = svc.counters();
  EXPECT_EQ(c.backend_creates, 2);
  EXPECT_EQ(c.backend_reuses, 1);
  EXPECT_EQ(c.plan_misses, 1);
  EXPECT_EQ(c.plan_hits, 2);
}

TEST(Serve, PooledBackendMemoryDoesNotGrowWithRequests) {
  // A served evaluate() must leave no per-request record
  // (DeployStats::eval_seconds, eval_accuracy) in the pooled backend, or
  // a long-running service grows with every request.
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();
  for (int i = 0; i < 25; ++i) {
    const Json r = reply(svc, R"({"op": "evaluate", "cycle": 0})");
    ASSERT_TRUE(r.find("ok")->as_bool()) << r.dump();
  }
  EXPECT_EQ(svc.counters().backend_creates, 1);
  EXPECT_EQ(svc.counters().backend_reuses, 24);
  EXPECT_EQ(svc.pooled_backends(), 1u);
  EXPECT_EQ(svc.pooled_eval_records(), 0u);
}

TEST(Serve, LatencyAndCountersMergeIntoABenchReport) {
  const ServeFixture f;
  serve::InferenceService svc = f.make_service();
  const Json ev = reply(svc, R"({"op": "evaluate"})");
  ASSERT_TRUE(ev.find("ok")->as_bool()) << ev.dump();
  const Json ping = reply(svc, R"({"op": "ping"})");
  ASSERT_TRUE(ping.find("ok")->as_bool());
  expect_bad_request(reply(svc, "nope"), "nope");

  // Report-time fold: the live registry merges into the report's once,
  // instead of the service writing the report per event.
  obs::BenchReport rep("bench_serve_probe", 1);
  rep.metrics().merge(svc.metrics());

  const Json doc = rep.document();
  const Json* counters = doc.find("counters");
  EXPECT_EQ(counters->find("serve_requests")->as_int(), 3);
  EXPECT_EQ(counters->find("serve_ok")->as_int(), 2);
  EXPECT_EQ(counters->find("serve_bad_request")->as_int(), 1);
  EXPECT_EQ(counters->find("serve_plan_misses")->as_int(), 1);
  const Json* lat = doc.find("histograms")->find("serve_request_seconds");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->as_int(), 3);
}

#ifdef RDO_SERVE_BIN
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>

namespace {

/// Line-oriented client over one TCP connection.
class TcpClient {
 public:
  bool connect_to(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }
  ~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  std::string request(const std::string& line) {
    const std::string out = line + "\n";
    if (::write(fd_, out.data(), out.size()) !=
        static_cast<ssize_t>(out.size())) {
      return {};
    }
    std::string in;
    char c = 0;
    while (::read(fd_, &c, 1) == 1 && c != '\n') in += c;
    return in;
  }

 private:
  int fd_ = -1;
};

}  // namespace

// End-to-end over the real binary and a real socket: spawn rdo_serve on
// an ephemeral port, parse the advertised port, drive a ping + two
// evaluates + a malformed line, and let --max-requests end the process.
TEST(ServeTcp, EndToEndOverRealSocket) {
  const std::string cmd =
      std::string("'") + RDO_SERVE_BIN +
      "' --port 0 --epochs 0 --train-per-class 3 --test-per-class 3"
      " --max-requests 4 2>/dev/null";
  std::FILE* proc = ::popen(cmd.c_str(), "r");
  ASSERT_NE(proc, nullptr);

  // First stdout line advertises the bound port.
  char line[256] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), proc), nullptr);
  int port = 0;
  ASSERT_EQ(std::sscanf(line, "rdo_serve: listening on 127.0.0.1:%d", &port),
            1)
      << line;
  ASSERT_GT(port, 0);

  TcpClient client;
  ASSERT_TRUE(client.connect_to(port));
  const Json pong = Json::parse(client.request(R"({"op": "ping"})"));
  EXPECT_TRUE(pong.find("ok")->as_bool());

  const std::string eval_line =
      R"({"op": "evaluate", "config": {"sigma": 0.4},)"
      R"( "data": {"split": "test", "count": 6}})";
  const Json a = Json::parse(client.request(eval_line));
  ASSERT_TRUE(a.find("ok")->as_bool()) << a.dump();
  const Json b = Json::parse(client.request(eval_line));
  ASSERT_TRUE(b.find("ok")->as_bool()) << b.dump();
  // Deterministic service: the repeated request is served from the hot
  // plan with the identical result.
  EXPECT_TRUE(b.find("result")->find("cached_plan")->as_bool());
  EXPECT_EQ(a.find("result")->find("accuracy")->as_double(),
            b.find("result")->find("accuracy")->as_double());

  const Json bad = Json::parse(client.request("garbage"));
  EXPECT_FALSE(bad.find("ok")->as_bool());
  EXPECT_EQ(bad.find("error")->find("code")->as_string(), "bad_request");

  EXPECT_EQ(::pclose(proc), 0);
}

namespace {

/// A running `rdo_serve --port 0` with `env` (VAR=value words) set and
/// stderr sent to `errfile`. `echo $$; exec env ... bin` makes the popen'd
/// shell print its own PID and then *become* the server, so stdout line 1
/// is the PID to signal and line 2 the advertised port.
struct ServeProcess {
  std::FILE* proc = nullptr;
  int pid = 0;
  int port = 0;
};

void spawn_serve(const std::string& env, const std::string& errfile,
                 ServeProcess& sp) {
  const std::string cmd = "echo $$; exec env " + env + " '" +
                          RDO_SERVE_BIN +
                          "' --port 0 --epochs 0 --train-per-class 3"
                          " --test-per-class 3 2>'" +
                          errfile + "'";
  sp.proc = ::popen(cmd.c_str(), "r");
  ASSERT_NE(sp.proc, nullptr);
  char line[256] = {0};
  ASSERT_NE(std::fgets(line, sizeof(line), sp.proc), nullptr);
  ASSERT_EQ(std::sscanf(line, "%d", &sp.pid), 1) << line;
  ASSERT_GT(sp.pid, 0);
  ASSERT_NE(std::fgets(line, sizeof(line), sp.proc), nullptr);
  ASSERT_EQ(
      std::sscanf(line, "rdo_serve: listening on 127.0.0.1:%d", &sp.port), 1)
      << line;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace

// Graceful shutdown end-to-end: SIGTERM must exit 0 after draining, the
// RDO_TRACE file must be flushed and valid (not lost to the signal), and
// stderr must carry the shutdown, slow-request and final-snapshot log
// lines.
TEST(ServeTcp, SigtermDrainsFlushesTraceAndSnapshot) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "rdo_serve_sigterm";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string trace = (dir / "trace.json").string();
  const std::string errfile = (dir / "stderr.log").string();
  ServeProcess sp;
  ASSERT_NO_FATAL_FAILURE(spawn_serve("RDO_TRACE='" + trace +
                                          "' RDO_METRICS_INTERVAL_S=0.1"
                                          " RDO_SLOW_REQUEST_MS=0",
                                      errfile, sp));

  {
    TcpClient client;
    ASSERT_TRUE(client.connect_to(sp.port));
    const Json pong = Json::parse(client.request(R"({"op": "ping"})"));
    EXPECT_TRUE(pong.find("ok")->as_bool());
    const std::string stats_line = client.request(R"({"op": "stats"})");
    const Json stats = Json::parse(stats_line);
    EXPECT_TRUE(stats.find("ok")->as_bool());
    EXPECT_EQ(stats.find("result")->find("requests")->as_int(), 2);
    // The live reply passes the schema check that validate_bench_json
    // applies to saved stats replies.
    const std::string stats_file = (dir / "stats.json").string();
    std::ofstream(stats_file) << stats_line << '\n';
    const std::string validate = std::string("'") + RDO_VALIDATE_BIN +
                                 "' --stats '" + stats_file + "'";
    EXPECT_EQ(std::system(validate.c_str()), 0) << stats_line;
  }
  // Give the periodic dumper (0.1 s interval) time to fire at least once,
  // then interrupt the accept() wait.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(::kill(sp.pid, SIGTERM), 0);
  EXPECT_EQ(::pclose(sp.proc), 0);  // graceful: drained and exited 0

  std::string err;
  const Json doc = obs::read_json_file(trace);
  EXPECT_TRUE(obs::validate_trace_document(doc, &err)) << err;

  const std::string stderr_text = read_text(errfile);
  EXPECT_NE(stderr_text.find("shutdown signal received"), std::string::npos)
      << stderr_text;
  EXPECT_NE(stderr_text.find("final metrics snapshot"), std::string::npos)
      << stderr_text;
  EXPECT_NE(stderr_text.find("metrics dump"), std::string::npos)
      << stderr_text;
  EXPECT_NE(stderr_text.find("slow request"), std::string::npos)
      << stderr_text;
  fs::remove_all(dir);
}

// An interval too long for the steady clock's deadline (1e10 s overflows
// its nanosecond count) must not turn into a dump on every wake-up: the
// dumper stays off with a warning.
TEST(ServeTcp, HugeMetricsIntervalLeavesDumperOff) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "rdo_serve_huge_interval";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string errfile = (dir / "stderr.log").string();
  ServeProcess sp;
  ASSERT_NO_FATAL_FAILURE(
      spawn_serve("RDO_METRICS_INTERVAL_S=1e10", errfile, sp));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(::kill(sp.pid, SIGTERM), 0);
  EXPECT_EQ(::pclose(sp.proc), 0);

  const std::string stderr_text = read_text(errfile);
  EXPECT_EQ(stderr_text.find("metrics dump"), std::string::npos)
      << stderr_text.substr(0, 2000);
  EXPECT_NE(stderr_text.find("RDO_METRICS_INTERVAL_S above one day"),
            std::string::npos)
      << stderr_text.substr(0, 2000);
  fs::remove_all(dir);
}
#endif  // RDO_SERVE_BIN
