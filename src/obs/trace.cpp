#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/envvar.h"
#include "obs/log.h"

namespace rdo::obs {

namespace trace_internal {

std::atomic<int> g_state{0};

namespace {

struct Event {
  char ph = 'X';
  std::string name;
  const char* cat = "";
  int tid = 0;
  std::int64_t ts_ns = 0;   // relative to the trace epoch
  std::int64_t dur_ns = 0;  // 'X' only
  Json args;                // Null when absent
};

/// All mutable tracer state behind one mutex. Intentionally leaked so
/// pool workers exiting during static destruction can never touch a
/// destroyed tracer; the atexit flush handler runs before that.
struct State {
  std::mutex mu;
  std::string path;
  std::int64_t epoch_ns = 0;
  std::vector<Event> events;
  std::vector<std::pair<int, std::string>> threads;  // tid -> track name
  int next_anon = 0;  // 0 => "main", then tid 1000+k ("thread-k")
  bool atexit_registered = false;
};

State& state() {
  static State* s = new State();
  return *s;
}

thread_local int tls_tid = -1;  // unresolved until first use / binding

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Register (tid, name) unless that tid is already bound. Caller holds
/// s.mu.
void register_thread_locked(State& s, int tid, const std::string& name) {
  for (const auto& [t, n] : s.threads) {
    if (t == tid) return;
  }
  s.threads.emplace_back(tid, name);
}

/// Resolve the calling thread's track id, assigning one on first use.
/// Caller holds s.mu.
int resolve_tid_locked(State& s) {
  if (tls_tid >= 0) return tls_tid;
  const int k = s.next_anon++;
  tls_tid = k == 0 ? 0 : 1000 + k;
  register_thread_locked(s, tls_tid,
                         k == 0 ? "main" : "thread-" + std::to_string(k));
  return tls_tid;
}

void append_event(char ph, std::string name, const char* cat,
                  std::int64_t start_ns, std::int64_t dur_ns, Json args) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (g_state.load(std::memory_order_relaxed) != 2) return;  // stopped since
  Event ev;
  ev.ph = ph;
  ev.name = std::move(name);
  ev.cat = cat;
  ev.tid = resolve_tid_locked(s);
  ev.ts_ns = std::max<std::int64_t>(0, start_ns - s.epoch_ns);
  ev.dur_ns = dur_ns;
  ev.args = std::move(args);
  s.events.push_back(std::move(ev));
}

Json event_json(const Event& ev, int tid, const char* name_override) {
  Json e = Json::object();
  e["name"] = name_override != nullptr ? name_override : ev.name.c_str();
  if (ev.cat[0] != '\0') e["cat"] = ev.cat;
  e["ph"] = std::string(1, ev.ph);
  e["ts"] = static_cast<double>(ev.ts_ns) / 1000.0;  // microseconds
  if (ev.ph == 'X') e["dur"] = static_cast<double>(ev.dur_ns) / 1000.0;
  e["pid"] = 1;
  e["tid"] = tid;
  if (!ev.args.is_null()) e["args"] = ev.args;
  return e;
}

/// Assemble the trace document. Caller holds s.mu.
Json build_document_locked(State& s) {
  Json doc = Json::object();
  Json evs = Json::array();

  Json pmeta = Json::object();
  pmeta["name"] = "process_name";
  pmeta["ph"] = "M";
  pmeta["pid"] = 1;
  pmeta["tid"] = 0;
  pmeta["args"]["name"] = "rdo";
  evs.push_back(std::move(pmeta));

  std::vector<std::pair<int, std::string>> threads = s.threads;
  std::sort(threads.begin(), threads.end());
  for (const auto& [tid, name] : threads) {
    Json tmeta = Json::object();
    tmeta["name"] = "thread_name";
    tmeta["ph"] = "M";
    tmeta["pid"] = 1;
    tmeta["tid"] = tid;
    tmeta["args"]["name"] = name;
    evs.push_back(std::move(tmeta));
  }

  // Timestamp order with insertion order as the tie-breaker: the only
  // nondeterminism left in the serialized form is the timestamps.
  std::vector<const Event*> ordered;
  ordered.reserve(s.events.size());
  for (const Event& ev : s.events) ordered.push_back(&ev);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Event* a, const Event* b) {
                     return a->ts_ns < b->ts_ns;
                   });
  for (const Event* ev : ordered) {
    evs.push_back(event_json(*ev, ev->tid, nullptr));
  }
  doc["traceEvents"] = std::move(evs);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

void flush_at_exit() { trace_stop(); }

void register_atexit_locked(State& s) {
  if (!s.atexit_registered) {
    std::atexit(flush_at_exit);
    s.atexit_registered = true;
  }
}

}  // namespace

bool resolve_from_env() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const int cur = g_state.load(std::memory_order_relaxed);
  if (cur != 0) return cur == 2;
  const char* p = rdo::obs::env_knob("RDO_TRACE");
  if (p != nullptr && p[0] != '\0') {
    s.path = p;
    s.epoch_ns = wall_ns();
    register_atexit_locked(s);
    g_state.store(2, std::memory_order_relaxed);
    return true;
  }
  g_state.store(1, std::memory_order_relaxed);
  return false;
}

}  // namespace trace_internal

using trace_internal::g_state;

void trace_start(const std::string& path) {
  trace_internal::State& s = trace_internal::state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.path = path;
  s.epoch_ns = [] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }();
  s.events.clear();
  trace_internal::register_atexit_locked(s);
  g_state.store(2, std::memory_order_relaxed);
}

namespace {

/// Caller holds s.mu. Serialize the current buffer to s.path.
std::string write_document_locked(trace_internal::State& s) {
  const Json doc = trace_internal::build_document_locked(s);
  try {
    write_json_file(doc, s.path);
  } catch (const std::exception& e) {
    log_error("trace", "cannot write trace file")
        .with("path", s.path)
        .with("error", e.what());
    return "";
  }
  return s.path;
}

}  // namespace

std::string trace_stop() {
  trace_internal::State& s = trace_internal::state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (g_state.load(std::memory_order_relaxed) != 2) return "";
  g_state.store(1, std::memory_order_relaxed);
  std::string written = write_document_locked(s);
  s.events.clear();
  return written;
}

std::string trace_flush() {
  trace_internal::State& s = trace_internal::state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (g_state.load(std::memory_order_relaxed) != 2) return "";
  // Keep the buffer and stay in the recording state: a later flush or
  // the final trace_stop() rewrites the file with a superset.
  return write_document_locked(s);
}

void trace_bind_thread(int tid, const std::string& name) {
  trace_internal::State& s = trace_internal::state();
  std::lock_guard<std::mutex> lock(s.mu);
  trace_internal::tls_tid = tid;
  trace_internal::register_thread_locked(s, tid, name);
}

void trace_counter(const char* name, std::int64_t value) {
  if (!trace_enabled()) return;
  Json args = Json::object();
  args["value"] = value;
  trace_internal::append_event('C', name, "counter",
                               trace_internal::wall_ns(), 0,
                               std::move(args));
}

void TraceSpan::begin(const char* name, const char* cat) {
  live_ = true;
  name_ = name;
  cat_ = cat;
  start_ns_ = trace_internal::wall_ns();
}

TraceSpan::TraceSpan(const char* name, const char* cat, double* add_seconds)
    : timed_(true), add_seconds_(add_seconds) {
  if (trace_enabled()) {
    begin(name, cat);
  } else {
    start_ns_ = trace_internal::wall_ns();
  }
}

double TraceSpan::seconds() const {
  if (!live_ && !timed_) return 0.0;
  return static_cast<double>(trace_internal::wall_ns() - start_ns_) / 1e9;
}

void TraceSpan::end() {
  const std::int64_t dur = trace_internal::wall_ns() - start_ns_;
  if (add_seconds_ != nullptr) {
    *add_seconds_ += static_cast<double>(dur) / 1e9;
  }
  if (live_) {
    trace_internal::append_event('X', std::move(name_), cat_, start_ns_, dur,
                                 std::move(args_));
    live_ = false;
  }
}

void TraceSpan::arg(const char* key, std::int64_t v) {
  if (live_) args_[key] = v;
}

void TraceSpan::arg(const char* key, double v) {
  if (live_) args_[key] = v;
}

void TraceSpan::arg(const char* key, const std::string& v) {
  if (live_) args_[key] = v;
}

namespace {

bool trace_check(bool cond, const std::string& what, std::string* err) {
  if (cond) return true;
  if (err != nullptr) *err = what;
  return false;
}

}  // namespace

bool validate_trace_document(const Json& doc, std::string* err) {
  if (!trace_check(doc.is_object(), "document is not an object", err)) {
    return false;
  }
  const Json* evs = doc.find("traceEvents");
  if (!trace_check(evs != nullptr && evs->is_array(),
                   "missing traceEvents array", err)) {
    return false;
  }
  for (std::size_t i = 0; i < evs->size(); ++i) {
    const Json& e = evs->at(i);
    const std::string at = " in event #" + std::to_string(i);
    if (!trace_check(e.is_object(), "event is not an object" + at, err)) {
      return false;
    }
    const Json* name = e.find("name");
    const Json* ph = e.find("ph");
    const Json* pid = e.find("pid");
    const Json* tid = e.find("tid");
    if (!trace_check(name != nullptr && name->is_string(),
                     "missing string name" + at, err) ||
        !trace_check(ph != nullptr && ph->is_string() &&
                         ph->as_string().size() == 1,
                     "missing one-char ph" + at, err) ||
        !trace_check(pid != nullptr && pid->is_int(),
                     "missing int pid" + at, err) ||
        !trace_check(tid != nullptr && tid->is_int(),
                     "missing int tid" + at, err)) {
      return false;
    }
    const char kind = ph->as_string()[0];
    const Json* ts = e.find("ts");
    const Json* args = e.find("args");
    if (kind == 'X') {
      const Json* dur = e.find("dur");
      if (!trace_check(ts != nullptr && ts->is_number(),
                       "X event without numeric ts" + at, err) ||
          !trace_check(dur != nullptr && dur->is_number() &&
                           dur->as_double() >= 0.0,
                       "X event without nonnegative dur" + at, err)) {
        return false;
      }
    } else if (kind == 'C') {
      if (!trace_check(ts != nullptr && ts->is_number(),
                       "C event without numeric ts" + at, err) ||
          !trace_check(args != nullptr && args->is_object(),
                       "C event without args" + at, err)) {
        return false;
      }
    } else if (kind == 'M') {
      if (!trace_check(args != nullptr && args->is_object(),
                       "M event without args" + at, err)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace rdo::obs
