#include "obs/report.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "nn/parallel.h"
#include "obs/env.h"
#include "obs/envvar.h"
#include "obs/log.h"

namespace rdo::obs {

BenchReport::BenchReport(std::string name, std::uint64_t seed)
    : name_(std::move(name)), seed_(seed) {}

double* BenchReport::phase(const std::string& name) {
  std::lock_guard<std::mutex> lock(phases_mu_);
  for (auto& [n, seconds] : phases_) {
    if (n == name) return &seconds;
  }
  return &phases_.emplace_back(name, 0.0).second;
}

void BenchReport::add_failure(const std::string& where,
                              const std::string& what) {
  Json f = Json::object();
  f["where"] = where;
  f["what"] = what;
  failures_.push_back(std::move(f));
}

Json BenchReport::document() const {
  Json doc = Json::object();
  doc["schema_version"] = kBenchSchemaVersion;
  doc["name"] = name_;
  doc["env"] = capture_env(seed_);

  Json timing = Json::object();
  timing["total_seconds"] = total_.seconds();
  Json phases = Json::array();
  {
    std::lock_guard<std::mutex> lock(phases_mu_);
    for (const auto& [name, seconds] : phases_) {
      Json p = Json::object();
      p["name"] = name;
      p["seconds"] = seconds;
      phases.push_back(std::move(p));
    }
  }
  timing["phases"] = std::move(phases);
  doc["timing"] = std::move(timing);

  const rdo::nn::PoolStats ps = rdo::nn::pool_stats();
  Json pool = Json::object();
  pool["threads"] = rdo::nn::thread_count();
  pool["parallel_loops"] = ps.parallel_loops;
  pool["inline_loops"] = ps.inline_loops;
  pool["chunks_executed"] = ps.chunks_executed;
  pool["chunks_stolen"] = ps.chunks_stolen;
  pool["steal_ratio"] = ps.chunks_executed > 0
                            ? static_cast<double>(ps.chunks_stolen) /
                                  static_cast<double>(ps.chunks_executed)
                            : 0.0;
  doc["pool"] = std::move(pool);

  Json metrics = metrics_.snapshot_json();
  doc["histograms"] = std::move(metrics["histograms"]);
  doc["counters"] = std::move(metrics["counters"]);
  doc["gauges"] = std::move(metrics["gauges"]);
  doc["results"] = results_;
  doc["failures"] = failures_;
  return doc;
}

std::string BenchReport::deterministic_dump() const {
  Json metrics = metrics_.snapshot_json();
  Json det = Json::object();
  det["counters"] = std::move(metrics["counters"]);
  det["gauges"] = std::move(metrics["gauges"]);
  det["results"] = results_;
  det["failures"] = failures_;
  return det.dump();
}

std::string BenchReport::write() const {
  std::string dir = ".";
  if (const char* d = rdo::obs::env_knob("RDO_BENCH_DIR")) {
    if (d[0] != '\0') {
      dir = d;
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (ec) {
        // Surface the real failure here: swallowing it used to turn a
        // bogus RDO_BENCH_DIR into a confusing downstream open error.
        throw std::runtime_error("BenchReport::write: cannot create "
                                 "RDO_BENCH_DIR \"" + dir + "\": " +
                                 ec.message());
      }
    }
  }
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  write_to(path);
  return path;
}

void BenchReport::write_to(const std::string& path) const {
  write_json_file(document(), path);
}

int BenchReport::exit_code() const {
  if (!any_failure()) return 0;
  log_error("bench", "units of work failed; see the \"failures\" section")
      .with("failed", static_cast<std::int64_t>(failure_count()))
      .with("report", "BENCH_" + name_ + ".json");
  return 1;
}

namespace {

bool check(bool cond, const std::string& what, std::string* err) {
  if (cond) return true;
  if (err != nullptr) *err = what;
  return false;
}

const Json* require_member(const Json& doc, const char* key,
                           Json::Type type, std::string* err) {
  const Json* v = doc.find(key);
  if (v == nullptr) {
    if (err != nullptr) *err = std::string("missing member \"") + key + '"';
    return nullptr;
  }
  const bool ok =
      v->type() == type ||
      (type == Json::Type::Double && v->type() == Json::Type::Int);
  if (!ok) {
    if (err != nullptr) *err = std::string("member \"") + key + "\" has wrong type";
    return nullptr;
  }
  return v;
}

}  // namespace

bool validate_bench_document(const Json& doc, std::string* err) {
  if (!check(doc.is_object(), "document is not an object", err)) return false;

  const Json* ver =
      require_member(doc, "schema_version", Json::Type::Int, err);
  if (ver == nullptr) return false;
  const std::int64_t version = ver->as_int();
  if (!check(version == 1 || version == kBenchSchemaVersion,
             "unsupported schema_version " + std::to_string(version),
             err)) {
    return false;
  }
  const Json* name = require_member(doc, "name", Json::Type::String, err);
  if (name == nullptr) return false;
  if (!check(!name->as_string().empty(), "empty name", err)) return false;

  const Json* env = require_member(doc, "env", Json::Type::Object, err);
  if (env == nullptr) return false;
  if (require_member(*env, "threads", Json::Type::Int, err) == nullptr) {
    return false;
  }
  const Json* seed = env->find("seed");
  if (!check(seed != nullptr && seed->is_uint(),
             "member \"seed\" is not an integer in [0, 2^64)", err)) {
    return false;
  }
  for (const char* key : {"build_type", "git_sha", "compiler"}) {
    if (require_member(*env, key, Json::Type::String, err) == nullptr) {
      return false;
    }
  }

  const Json* timing = require_member(doc, "timing", Json::Type::Object, err);
  if (timing == nullptr) return false;
  if (require_member(*timing, "total_seconds", Json::Type::Double, err) ==
      nullptr) {
    return false;
  }
  const Json* phases =
      require_member(*timing, "phases", Json::Type::Array, err);
  if (phases == nullptr) return false;
  for (std::size_t i = 0; i < phases->size(); ++i) {
    const Json& p = phases->at(i);
    if (!check(p.is_object(), "phase entry is not an object", err)) {
      return false;
    }
    if (require_member(p, "name", Json::Type::String, err) == nullptr ||
        require_member(p, "seconds", Json::Type::Double, err) == nullptr) {
      return false;
    }
  }

  const Json* pool = require_member(doc, "pool", Json::Type::Object, err);
  if (pool == nullptr) return false;
  for (const char* key : {"threads", "parallel_loops", "inline_loops",
                          "chunks_executed", "chunks_stolen"}) {
    if (require_member(*pool, key, Json::Type::Int, err) == nullptr) {
      return false;
    }
  }

  if (version >= 2) {
    const Json* hists =
        require_member(doc, "histograms", Json::Type::Object, err);
    if (hists == nullptr) return false;
    for (const auto& [key, h] : hists->members()) {
      if (!check(h.is_object(),
                 "histogram \"" + key + "\" is not an object", err)) {
        return false;
      }
      if (require_member(h, "count", Json::Type::Int, err) == nullptr) {
        return false;
      }
      for (const char* field : {"min_seconds", "max_seconds", "p50_seconds",
                                "p95_seconds", "p99_seconds"}) {
        if (require_member(h, field, Json::Type::Double, err) == nullptr) {
          return false;
        }
      }
      const Json* buckets =
          require_member(h, "bucket_counts", Json::Type::Array, err);
      if (buckets == nullptr) return false;
      for (std::size_t i = 0; i < buckets->size(); ++i) {
        if (!check(buckets->at(i).is_int(),
                   "histogram \"" + key + "\" bucket is not an int", err)) {
          return false;
        }
      }
    }
  }

  const Json* counters =
      require_member(doc, "counters", Json::Type::Object, err);
  if (counters == nullptr) return false;
  for (const auto& [key, value] : counters->members()) {
    if (!check(value.is_int(), "counter \"" + key + "\" is not an int",
               err)) {
      return false;
    }
  }
  const Json* gauges = require_member(doc, "gauges", Json::Type::Object, err);
  if (gauges == nullptr) return false;
  for (const auto& [key, value] : gauges->members()) {
    if (!check(value.is_number(), "gauge \"" + key + "\" is not a number",
               err)) {
      return false;
    }
  }

  if (require_member(doc, "results", Json::Type::Object, err) == nullptr) {
    return false;
  }
  const Json* failures =
      require_member(doc, "failures", Json::Type::Array, err);
  if (failures == nullptr) return false;
  for (std::size_t i = 0; i < failures->size(); ++i) {
    const Json& f = failures->at(i);
    if (!check(f.is_object(), "failure entry is not an object", err)) {
      return false;
    }
    if (require_member(f, "where", Json::Type::String, err) == nullptr ||
        require_member(f, "what", Json::Type::String, err) == nullptr) {
      return false;
    }
  }
  return true;
}

}  // namespace rdo::obs
