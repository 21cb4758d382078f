#include "obs/recorder.h"

namespace rdo::obs {

namespace {

template <typename T>
T* find_entry(std::vector<std::pair<std::string, T>>& v,
              const std::string& name) {
  for (auto& kv : v) {
    if (kv.first == name) return &kv.second;
  }
  return nullptr;
}

template <typename T>
const T* find_entry(const std::vector<std::pair<std::string, T>>& v,
                    const std::string& name) {
  for (const auto& kv : v) {
    if (kv.first == name) return &kv.second;
  }
  return nullptr;
}

}  // namespace

void Recorder::add_phase(const std::string& name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (double* s = find_entry(phases_, name)) {
    *s += seconds;
  } else {
    phases_.emplace_back(name, seconds);
  }
}

void Recorder::incr(const std::string& name, std::int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (std::int64_t* c = find_entry(counters_, name)) {
    *c += delta;
  } else {
    counters_.emplace_back(name, delta);
  }
}

void Recorder::set_gauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (double* g = find_entry(gauges_, name)) {
    *g = value;
  } else {
    gauges_.emplace_back(name, value);
  }
}

void Recorder::observe(const std::string& name, double seconds) {
  histograms_.histogram(name).observe(seconds);
}

Histogram& Recorder::histogram(const std::string& name) {
  return histograms_.histogram(name);
}

double Recorder::phase_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const double* s = find_entry(phases_, name);
  return s != nullptr ? *s : 0.0;
}

std::int64_t Recorder::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t* c = find_entry(counters_, name);
  return c != nullptr ? *c : 0;
}

Json Recorder::phases_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json arr = Json::array();
  for (const auto& [name, seconds] : phases_) {
    Json p = Json::object();
    p["name"] = name;
    p["seconds"] = seconds;
    arr.push_back(std::move(p));
  }
  return arr;
}

Json Recorder::counters_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json obj = Json::object();
  for (const auto& [name, count] : counters_) obj[name] = count;
  return obj;
}

Json Recorder::gauges_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json obj = Json::object();
  for (const auto& [name, value] : gauges_) obj[name] = value;
  return obj;
}

Json Recorder::histograms_json() const {
  Json obj = Json::object();
  for (const auto& [name, h] : histograms_.snapshot().histograms) {
    obj[name] = histogram_snapshot_json(h);
  }
  return obj;
}

}  // namespace rdo::obs
