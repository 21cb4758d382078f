// Execution tracing: Chrome trace-event / Perfetto-compatible spans.
//
// The tracer records complete spans ("ph":"X"), counter samples
// ("ph":"C") and process/thread name metadata ("ph":"M") into an
// in-memory buffer and writes one `traceEvents` JSON document (open it
// at ui.perfetto.dev or chrome://tracing). Output reuses the obs::Json
// writer, so the serialized form is deterministic modulo timestamps:
// events are ordered by timestamp with insertion order as the
// tie-breaker, and metadata tracks are sorted by thread id.
//
// Opt-in and cost model: tracing is off unless the RDO_TRACE=<path>
// environment variable is set (resolved once) or trace_start() is
// called. When off, every instrumentation site costs a single relaxed
// atomic load — no clock read, no lock, no allocation — so the
// bit-identical determinism guarantee of the pipeline (PR 1) and the
// BENCH determinism contract (obs/report.h) are unaffected either way:
// clocks never feed back into any computation.
//
// This header lives in rdo_obs_base (json + trace only, no other
// dependencies) so the nn thread pool can emit per-chunk spans without
// creating a cycle against rdo_obs, which links rdo_nn for pool stats.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/json.h"

namespace rdo::obs {

namespace trace_internal {
/// 0 = unresolved (first trace_enabled() call reads RDO_TRACE),
/// 1 = disabled, 2 = recording.
extern std::atomic<int> g_state;
bool resolve_from_env();
}  // namespace trace_internal

/// True while span/counter recording is active. After the first call
/// (which resolves RDO_TRACE) this is one relaxed atomic load.
inline bool trace_enabled() {
  const int s = trace_internal::g_state.load(std::memory_order_relaxed);
  if (s == 0) return trace_internal::resolve_from_env();
  return s == 2;
}

/// Programmatic start (tests, harnesses): drop any buffered events,
/// reset the trace epoch and begin recording; trace_stop() or process
/// exit writes the document to `path`. Overrides RDO_TRACE.
void trace_start(const std::string& path);

/// Write buffered events to the configured path and stop recording.
/// Returns the path written, or an empty string when tracing was not
/// active (or the write failed — diagnosed via the logger). Idempotent.
std::string trace_stop();

/// Write buffered events to the configured path *without* stopping:
/// recording continues and buffered events are kept, so a later flush
/// or stop rewrites the file with a superset. Returns the path written,
/// or an empty string when tracing is not active or the write failed.
/// This is the signal-shutdown hook — before trace_flush(), a process
/// killed between atexit registration and exit lost its whole trace.
std::string trace_flush();

/// Bind the calling thread to a stable track: `tid` becomes its thread
/// id in the trace and `name` its thread_name metadata. Pool workers
/// bind tid = worker index + 1 at thread start; unbound threads are
/// assigned tid 0 ("main") first, then 1000+k. Bindings are kept even
/// while tracing is off so long-lived workers stay labelled across
/// trace_start()/trace_stop() cycles.
void trace_bind_thread(int tid, const std::string& name);

/// Emit one counter sample (a "ph":"C" event; Perfetto renders a
/// counter track named `name`). No-op when tracing is off.
void trace_counter(const char* name, std::int64_t value);

/// RAII complete span: measures construction -> destruction and records
/// one "ph":"X" event on the calling thread's track. When tracing is
/// off the constructor is a single relaxed atomic check and every other
/// member is a no-op.
///
/// A *timed* span (the three-argument constructor) is also the repo's
/// timed-scope primitive: it reads the clock once at construction and
/// once at destruction whether or not tracing is on, adds the duration
/// to `*add_seconds` (skipped for nullptr) — also when an exception
/// unwinds the scope — and, when tracing is on, records its event from
/// those same two reads, so DeployStats and the trace agree exactly.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* cat = "rdo") {
    if (trace_enabled()) begin(name, cat);
  }
  TraceSpan(const char* name, const char* cat, double* add_seconds);
  ~TraceSpan() {
    if (live_ || timed_) end();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attach a key/value to the span's `args` block (no-op when the
  /// span is inactive — guard expensive arg computation on active()).
  void arg(const char* key, std::int64_t v);
  void arg(const char* key, int v) { arg(key, static_cast<std::int64_t>(v)); }
  void arg(const char* key, double v);
  void arg(const char* key, const std::string& v);

  [[nodiscard]] bool active() const { return live_; }

  /// Seconds elapsed since construction (one clock read); 0 for an
  /// untimed span while tracing is off.
  [[nodiscard]] double seconds() const;

 private:
  void begin(const char* name, const char* cat);
  void end();

  bool live_ = false;
  bool timed_ = false;
  double* add_seconds_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::string name_;
  const char* cat_ = "";
  Json args_;  // Null until the first arg() call
};

/// Structural validation of a trace document (the writer's own output
/// format): a `traceEvents` array whose entries carry name/ph/pid/tid,
/// with ts+dur on "X" events, ts+args on "C" events and args on "M"
/// events. Returns true on success; diagnostic in *err otherwise.
bool validate_trace_document(const Json& doc, std::string* err);

}  // namespace rdo::obs
