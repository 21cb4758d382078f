#include "serve/server.h"

#include <cstdio>
#include <cstdlib>
#include <future>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/envvar.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace rdo::serve {

using rdo::obs::Json;

bool AdmissionGate::enter() {
  std::unique_lock<std::mutex> lk(mu_);
  if (active_ < max_active_) {
    ++active_;
    return true;
  }
  if (queued_ >= max_queued_) return false;  // shed
  ++queued_;
  cv_.wait(lk, [&] { return active_ < max_active_; });
  --queued_;
  ++active_;
  return true;
}

void AdmissionGate::leave() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    --active_;
  }
  // notify_all, not notify_one: both a queued request and a wait_idle()
  // drainer may be parked on this cv, and waking only one could leave
  // the other waiting on a notification that never comes.
  cv_.notify_all();
}

void AdmissionGate::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return active_ == 0 && queued_ == 0; });
}

int AdmissionGate::active() const {
  std::lock_guard<std::mutex> lk(mu_);
  return active_;
}

int AdmissionGate::queued() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queued_;
}

InferenceService::InferenceService(const rdo::nn::Layer& net,
                                   rdo::nn::DataView train,
                                   rdo::nn::DataView test,
                                   rdo::core::DeployOptions base,
                                   ServeConfig cfg)
    : net_(net.clone()),
      train_(train),
      test_(test),
      base_(base),
      cfg_(cfg),
      gate_(cfg.max_active, cfg.max_queued) {
  rdo::core::check_options(base_);
  const char* p = rdo::obs::env_knob("RDO_SLOW_REQUEST_MS");
  if (p != nullptr && p[0] != '\0') {
    char* end = nullptr;
    const double ms = std::strtod(p, &end);
    if (end != p && *end == '\0' && ms >= 0.0) {  // false for NaN
      slow_threshold_s_ = ms / 1000.0;
    } else {
      rdo::obs::log_warn("serve",
                         "RDO_SLOW_REQUEST_MS is not a number of "
                         "milliseconds >= 0; slow-request log off")
          .with("value", p);
    }
  }
}

ServeCounters InferenceService::counters() const {
  ServeCounters c;
  c.requests = c_requests_.value();
  c.ok = c_ok_.value();
  c.bad_request = c_bad_request_.value();
  c.overloaded = c_overloaded_.value();
  c.internal = c_internal_.value();
  c.plan_hits = c_plan_hits_.value();
  c.plan_misses = c_plan_misses_.value();
  c.plan_evictions = c_plan_evictions_.value();
  c.backend_creates = c_backend_creates_.value();
  c.backend_reuses = c_backend_reuses_.value();
  c.slow_requests = c_slow_requests_.value();
  return c;
}

std::size_t InferenceService::cached_plans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lru_.size();
}

std::size_t InferenceService::compiling_plans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return in_flight_.size();
}

template <class F>
std::size_t InferenceService::sum_over_pooled(F per_backend) const {
  std::vector<std::shared_ptr<PlanEntry>> entries;
  {
    std::lock_guard<std::mutex> lk(mu_);
    entries.assign(lru_.begin(), lru_.end());
  }
  std::size_t n = 0;
  for (const auto& e : entries) {
    std::lock_guard<std::mutex> lk(e->mu);
    for (const auto& [cycle, idle] : e->pools) {
      for (const auto& b : idle) n += per_backend(*b);
    }
  }
  return n;
}

std::size_t InferenceService::pooled_backends() const {
  return sum_over_pooled(
      [](const rdo::core::EffectiveWeightBackend&) { return std::size_t{1}; });
}

std::size_t InferenceService::pooled_eval_records() const {
  return sum_over_pooled([](const rdo::core::EffectiveWeightBackend& b) {
    return b.stats().eval_seconds.size() + b.stats().eval_accuracy.size();
  });
}

std::shared_ptr<InferenceService::PlanEntry> InferenceService::get_plan(
    const rdo::core::DeployOptions& opt, bool& lru_hit) {
  const std::uint64_t fp = rdo::core::plan_fingerprint(*net_, opt, train_);
  // Caller holds mu_. Returns the hot entry for fp, touched, or nullptr.
  const auto find_hot = [&]() -> std::shared_ptr<PlanEntry> {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if ((*it)->fp == fp) {
        lru_.splice(lru_.begin(), lru_, it);  // touch
        return lru_.front();
      }
    }
    return nullptr;
  };
  // Set when this request owns the compile; `pending` when another does.
  std::optional<std::promise<Compiled>> compiled;
  std::shared_future<Compiled> pending;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (auto hot = find_hot()) {
      c_plan_hits_.add();
      lru_hit = true;
      return hot;
    }
    if (const auto it = in_flight_.find(fp); it != in_flight_.end()) {
      pending = it->second;
    } else {
      compiled.emplace();
      in_flight_.emplace(fp, compiled->get_future().share());
    }
  }

  if (pending.valid()) {
    // Another request is compiling this plan: wait for it and count a
    // hit, as if it had been found hot. A failure arrives as its message
    // and is thrown anew here, so no exception object is shared between
    // request threads.
    const Compiled& done = pending.get();
    if (done.entry == nullptr) throw std::runtime_error(done.error);
    std::lock_guard<std::mutex> lk(mu_);
    find_hot();  // touch, unless already evicted
    c_plan_hits_.add();
    lru_hit = true;
    return done.entry;
  }

  // This request owns the compile for fp; it runs outside any lock, so
  // misses for other configs proceed in parallel.
  lru_hit = false;
  // On failure: not kept (the next request retries), and every waiter
  // gets the message.
  const auto abandon = [&](std::string error) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      in_flight_.erase(fp);
    }
    compiled->set_value({nullptr, std::move(error)});
  };
  std::shared_ptr<PlanEntry> entry;
  try {
    entry = std::make_shared<PlanEntry>(
        rdo::core::compile_plan(*net_, opt, train_, fp));
    entry->fp = fp;
    entry->from_disk_cache = entry->plan.compile_stats.plan_cache_hits > 0;
    std::lock_guard<std::mutex> lk(mu_);
    c_plan_misses_.add();
    lru_.push_front(entry);
    while (lru_.size() > cfg_.max_plans) {
      // In-flight requests keep their shared_ptr; the plan dies when the
      // last one finishes.
      lru_.pop_back();
      c_plan_evictions_.add();
    }
    in_flight_.erase(fp);
  } catch (const std::exception& e) {
    abandon(e.what());
    throw;
  } catch (...) {
    abandon("plan compile failed");
    throw;
  }
  compiled->set_value({entry, {}});
  return entry;
}

Json InferenceService::evaluate(const ServeRequest& req) {
  AdmissionTicket ticket(gate_);
  if (!ticket.admitted()) {
    throw ProtocolError(ErrorCode::Overloaded,
                        "active and queued request limits reached");
  }

  // Resolve the requested samples into a self-contained batch.
  rdo::nn::Batch batch;
  if (req.data.is_inline()) {
    const rdo::nn::Tensor& images = req.data.inline_images;
    const std::int64_t n = images.dim(0);
    if (n > kMaxRequestSamples) {
      throw ProtocolError(ErrorCode::BadRequest,
                          "inline batch exceeds kMaxRequestSamples");
    }
    // The batch runs in the registered samples' shape, so a flat
    // [N, features] batch serves any network.
    std::vector<std::int64_t> shape = test_.images->shape();
    shape[0] = n;
    if (rdo::nn::Tensor::numel(shape) != images.size()) {
      throw ProtocolError(ErrorCode::BadRequest,
                          "inline sample size differs from the registered "
                          "data's");
    }
    batch = {images.reshaped(std::move(shape)), req.data.inline_labels};
  } else {
    const rdo::nn::DataView& src =
        req.data.split == "train" ? train_ : test_;
    const std::int64_t total = src.size();
    if (req.data.offset > total) {
      throw ProtocolError(ErrorCode::BadRequest, "offset beyond dataset");
    }
    const std::int64_t count = req.data.count == 0
                                   ? total - req.data.offset
                                   : req.data.count;
    // offset <= total here, so the subtraction cannot overflow where
    // offset + count could.
    if (count < 1 || count > total - req.data.offset) {
      throw ProtocolError(ErrorCode::BadRequest,
                          "offset/count outside dataset");
    }
    if (count > kMaxRequestSamples) {
      throw ProtocolError(ErrorCode::BadRequest,
                          "count exceeds kMaxRequestSamples");
    }
    batch = rdo::nn::take_batch(src, req.data.offset,
                                req.data.offset + count);
  }
  const rdo::nn::DataView view{&batch.images, &batch.labels};

  bool lru_hit = false;
  std::shared_ptr<PlanEntry> entry = get_plan(req.options, lru_hit);

  // Check out a programmed backend for this cycle, or build one.
  std::unique_ptr<rdo::core::EffectiveWeightBackend> backend;
  {
    std::lock_guard<std::mutex> lk(entry->mu);
    auto& idle = entry->pools[req.cycle];
    if (!idle.empty()) {
      backend = std::move(idle.back());
      idle.pop_back();
    }
  }
  if (backend != nullptr) {
    c_backend_reuses_.add();
  } else {
    c_backend_creates_.add();
    rdo::obs::TraceSpan span("serve:backend_create", "serve");
    backend = std::make_unique<rdo::core::EffectiveWeightBackend>(entry->plan,
                                                                  *net_);
    backend->program_cycle(req.cycle);
    backend->tune(train_);
  }

  const float acc = backend->evaluate(view, req.batch);

  {
    std::lock_guard<std::mutex> lk(entry->mu);
    auto& idle = entry->pools[req.cycle];
    if (idle.size() < cfg_.max_backends_per_plan) {
      // A pooled backend serves requests for the life of the service:
      // keep none of their per-call records.
      backend->clear_eval_records();
      idle.push_back(std::move(backend));
    }
    // else: drop it — the pool is full.
  }

  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(entry->fp));
  Json r = Json::object();
  r["accuracy"] = static_cast<double>(acc);
  r["samples"] = batch.images.dim(0);
  r["cycle"] = static_cast<std::int64_t>(req.cycle);
  r["plan_fingerprint"] = std::string(hex);
  r["cached_plan"] = lru_hit;
  r["plan_from_disk_cache"] = entry->from_disk_cache;
  r["backend"] = "effective-weight";
  return r;
}

Json InferenceService::stats_result() {
  // Refresh the point-in-time gauges before snapshotting so the nested
  // registry view and the flat fields agree within one stats response.
  const std::size_t pooled = pooled_backends();
  const std::size_t plans = cached_plans();
  const int active = gate_.active();
  const int queued = gate_.queued();
  const double uptime = uptime_.seconds();
  metrics_.gauge("serve_active_requests").set(active);
  metrics_.gauge("serve_queued_requests").set(queued);
  metrics_.gauge("serve_cached_plans").set(static_cast<double>(plans));
  metrics_.gauge("serve_pooled_backends").set(static_cast<double>(pooled));
  metrics_.gauge("serve_uptime_seconds").set(uptime);

  const ServeCounters c = counters();
  Json r = Json::object();
  r["requests"] = c.requests;
  r["ok"] = c.ok;
  r["bad_request"] = c.bad_request;
  r["overloaded"] = c.overloaded;
  r["internal"] = c.internal;
  r["plan_hits"] = c.plan_hits;
  r["plan_misses"] = c.plan_misses;
  r["plan_evictions"] = c.plan_evictions;
  r["backend_creates"] = c.backend_creates;
  r["backend_reuses"] = c.backend_reuses;
  r["slow_requests"] = c.slow_requests;
  r["cached_plans"] = static_cast<std::int64_t>(plans);
  r["pooled_backends"] = static_cast<std::int64_t>(pooled);
  r["active"] = active;
  r["queued"] = queued;
  r["uptime_seconds"] = uptime;
  const std::int64_t lookups = c.plan_hits + c.plan_misses;
  r["plan_hit_rate"] = lookups > 0 ? static_cast<double>(c.plan_hits) /
                                         static_cast<double>(lookups)
                                   : 0.0;
  r["metrics"] = metrics_.snapshot_json();
  return r;
}

std::string InferenceService::handle_line(const std::string& line) {
  const auto rid = static_cast<std::int64_t>(
      request_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  const char* op_name = "?";
  const char* status = "ok";
  std::string out;
  // The serve:request span is the request's only timer: it adds the
  // latency to `seconds` as it closes, from the clock reads that also
  // time its trace event.
  double seconds = 0.0;
  {
    rdo::obs::TraceSpan span("serve:request", "serve", &seconds);
    span.arg("request_id", rid);
    c_requests_.add();
    Json id;
    try {
      Json doc;
      try {
        doc = Json::parse(line);
      } catch (const std::exception& e) {
        throw ProtocolError(ErrorCode::BadRequest,
                            std::string("malformed JSON: ") + e.what());
      }
      ServeRequest req = parse_request(doc, base_);
      id = req.id;
      switch (req.op) {
        case Op::Ping: {
          op_name = "ping";
          Json r = Json::object();
          r["pong"] = true;
          out = ok_response(id, std::move(r));
          break;
        }
        case Op::Stats: {
          op_name = "stats";
          out = ok_response(id, stats_result());
          break;
        }
        case Op::Evaluate: {
          op_name = "evaluate";
          out = ok_response(id, evaluate(req));
          break;
        }
      }
      c_ok_.add();
    } catch (const ProtocolError& e) {
      status = to_string(e.code);
      span.arg("error", status);
      switch (e.code) {
        case ErrorCode::BadRequest:
          c_bad_request_.add();
          break;
        case ErrorCode::Overloaded:
          c_overloaded_.add();
          break;
        case ErrorCode::Internal:
          c_internal_.add();
          break;
      }
      out = error_response(id, e.code, e.what());
    } catch (const std::exception& e) {
      status = "internal";
      span.arg("error", status);
      c_internal_.add();
      out = error_response(id, ErrorCode::Internal, e.what());
    }
  }
  h_request_seconds_.observe(seconds);
  if (slow_threshold_s_ >= 0.0 && seconds >= slow_threshold_s_) {
    c_slow_requests_.add();
    rdo::obs::log_warn("serve", "slow request")
        .with("request_id", rid)
        .with("op", op_name)
        .with("status", status)
        .with("seconds", seconds)
        .with("threshold_seconds", slow_threshold_s_);
  }
  rdo::obs::log_debug("serve", "request handled")
      .with("request_id", rid)
      .with("op", op_name)
      .with("status", status)
      .with("seconds", seconds);
  return out;
}

}  // namespace rdo::serve
