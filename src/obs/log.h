// Leveled, thread-safe structured logging for long-running processes.
//
// Diagnostics used to be ad-hoc `std::fprintf(stderr, ...)` calls with
// no level, no timestamp and no machine-readable shape — useless for a
// campaign-length sweep or a served deployment where the interesting
// warning scrolled past hours ago. Every log line now carries:
//
//   * a level (debug < info < warn < error), filtered by RDO_LOG_LEVEL
//   * a subsystem tag ("deploy", "serve", "trace", ...)
//   * a monotonic timestamp (seconds since the logger epoch — wall-clock
//     time never feeds any computation, matching the repo-wide
//     determinism contract; correlate with trace files via RDO_TRACE)
//   * optional structured key=value fields (request ids, paths, counts)
//
// Two output formats, selected by RDO_LOG_FORMAT:
//
//   text (default)   [   12.345] WARN  deploy: corrupt LUT cache entry
//                    path=/cache/rlut_0a.bin error="truncated payload"
//   json             {"ts": 12.345, "level": "warn", "subsystem":
//                    "deploy", "message": "...", "path": "...", ...}
//
// JSON lines reuse the deterministic obs::Json writer, so a log stream
// is parseable line-by-line by the same tooling that reads BENCH files.
//
// Usage — the builder emits on destruction, at the end of the full
// expression:
//
//   log_warn("deploy", "corrupt LUT cache entry")
//       .with("path", path).with("error", e.what());
//
// Cost model: when the level is filtered out, constructing the line is
// one relaxed atomic load and every with() is a no-op. Emission itself
// formats off-lock and takes one mutex around the sink write, so
// concurrent lines never interleave. Lives in rdo_obs_base (json only)
// so the tracer and every layer above it can log without cycles.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/json.h"

namespace rdo::obs {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Canonical lowercase name ("debug", ..., "off").
const char* to_string(LogLevel level);
/// Inverse of to_string (case-insensitive); nullopt-style: returns
/// `fallback` for unknown names. RDO_LOG_LEVEL is parsed through this.
LogLevel log_level_from_string(const std::string& name, LogLevel fallback);

enum class LogFormat { Text, JsonLines };

namespace log_internal {
/// Resolved minimum level + 1, or 0 while unresolved (first use reads
/// RDO_LOG_LEVEL). Kept as int so the enabled check is one relaxed load.
extern std::atomic<int> g_level;
int resolve_level_from_env();
}  // namespace log_internal

/// True when `level` passes the active filter. After the first call
/// (which resolves RDO_LOG_LEVEL, default info) this is one relaxed
/// atomic load.
inline bool log_enabled(LogLevel level) {
  int min = log_internal::g_level.load(std::memory_order_relaxed);
  if (min == 0) min = log_internal::resolve_level_from_env();
  return static_cast<int>(level) >= min - 1 && level != LogLevel::Off;
}

/// Programmatic overrides (tests, tools): take precedence over the
/// RDO_LOG_LEVEL / RDO_LOG_FORMAT environment variables.
void log_set_level(LogLevel level);
void log_set_format(LogFormat format);
/// Redirect emission (default stderr). Pass nullptr to restore stderr.
/// The caller keeps ownership of the stream.
void log_set_sink(std::FILE* sink);

/// One structured log line. Built by log_debug()/log_info()/log_warn()/
/// log_error(); emits on destruction unless the level is filtered.
class LogLine {
 public:
  LogLine(LogLevel level, const char* subsystem, std::string message);
  ~LogLine();
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  /// Attach one key/value field (insertion order preserved; no-op when
  /// the line is filtered out).
  LogLine& with(const char* key, const std::string& v);
  LogLine& with(const char* key, const char* v);
  LogLine& with(const char* key, std::int64_t v);
  LogLine& with(const char* key, int v) {
    return with(key, static_cast<std::int64_t>(v));
  }
  LogLine& with(const char* key, double v);

  [[nodiscard]] bool live() const { return live_; }

 private:
  bool live_ = false;
  LogLevel level_ = LogLevel::Info;
  const char* subsystem_ = "";
  std::string message_;
  Json fields_;  // Null until the first with() call
};

LogLine log_debug(const char* subsystem, std::string message);
LogLine log_info(const char* subsystem, std::string message);
LogLine log_warn(const char* subsystem, std::string message);
LogLine log_error(const char* subsystem, std::string message);

/// Render one line exactly as the sink would receive it (no trailing
/// newline) — the formatting contract, exposed so tests pin it without
/// scraping a stream.
std::string format_log_line(LogFormat format, double ts, LogLevel level,
                            const char* subsystem,
                            const std::string& message, const Json& fields);

}  // namespace rdo::obs
