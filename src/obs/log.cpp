#include "obs/log.h"

#include "obs/envvar.h"

#include <cctype>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <utility>

namespace rdo::obs {

namespace log_internal {

std::atomic<int> g_level{0};

namespace {

/// All mutable logger state behind one mutex. Intentionally leaked so
/// lines emitted from atexit handlers (e.g. the trace flush) can never
/// touch a destroyed logger.
struct State {
  std::mutex mu;
  LogFormat format = LogFormat::Text;
  bool format_resolved = false;
  std::FILE* sink = nullptr;  // nullptr => stderr
  std::int64_t epoch_ns = 0;
  bool epoch_set = false;
};

State& state() {
  static State* s = new State();
  return *s;
}

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Caller holds s.mu.
double uptime_locked(State& s) {
  if (!s.epoch_set) {
    s.epoch_ns = mono_ns();
    s.epoch_set = true;
  }
  return static_cast<double>(mono_ns() - s.epoch_ns) / 1e9;
}

/// Caller holds s.mu.
LogFormat format_locked(State& s) {
  if (!s.format_resolved) {
    s.format_resolved = true;
    if (const char* f = rdo::obs::env_knob("RDO_LOG_FORMAT")) {
      std::string v(f);
      for (char& c : v) c = static_cast<char>(std::tolower(c));
      if (v == "json") s.format = LogFormat::JsonLines;
    }
  }
  return s.format;
}

}  // namespace

int resolve_level_from_env() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const int cur = g_level.load(std::memory_order_relaxed);
  if (cur != 0) return cur;
  LogLevel lv = LogLevel::Info;
  if (const char* p = rdo::obs::env_knob("RDO_LOG_LEVEL")) {
    lv = log_level_from_string(p, LogLevel::Info);
  }
  const int encoded = static_cast<int>(lv) + 1;
  g_level.store(encoded, std::memory_order_relaxed);
  return encoded;
}

}  // namespace log_internal

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    case LogLevel::Off: return "off";
  }
  return "?";
}

LogLevel log_level_from_string(const std::string& name, LogLevel fallback) {
  std::string v = name;
  for (char& c : v) c = static_cast<char>(std::tolower(c));
  if (v == "debug") return LogLevel::Debug;
  if (v == "info") return LogLevel::Info;
  if (v == "warn" || v == "warning") return LogLevel::Warn;
  if (v == "error") return LogLevel::Error;
  if (v == "off" || v == "none") return LogLevel::Off;
  return fallback;
}

void log_set_level(LogLevel level) {
  log_internal::g_level.store(static_cast<int>(level) + 1,
                              std::memory_order_relaxed);
}

void log_set_format(LogFormat format) {
  auto& s = log_internal::state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.format = format;
  s.format_resolved = true;
}

void log_set_sink(std::FILE* sink) {
  auto& s = log_internal::state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.sink = sink;
}

namespace {

/// Level tag for the text format: fixed width so columns line up.
const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: break;
  }
  return "?????";
}

bool needs_quoting(const std::string& v) {
  if (v.empty()) return true;
  for (const char c : v) {
    if (c == ' ' || c == '"' || c == '=' || c == '\n' || c == '\t') {
      return true;
    }
  }
  return false;
}

void append_text_value(std::string& out, const Json& v) {
  if (v.is_string()) {
    const std::string& s = v.as_string();
    if (needs_quoting(s)) {
      out += Json(s).dump();  // JSON string escaping, quotes included
    } else {
      out += s;
    }
  } else {
    out += v.dump();
  }
}

}  // namespace

std::string format_log_line(LogFormat format, double ts, LogLevel level,
                            const char* subsystem,
                            const std::string& message, const Json& fields) {
  if (format == LogFormat::JsonLines) {
    Json line = Json::object();
    line["ts"] = ts;
    line["level"] = to_string(level);
    line["subsystem"] = subsystem;
    line["message"] = message;
    if (fields.is_object()) {
      for (const auto& [key, v] : fields.members()) line[key] = v;
    }
    return line.dump();
  }
  char head[64];
  std::snprintf(head, sizeof(head), "[%10.3f] ", ts);
  std::string out = head;
  out += level_tag(level);
  out += ' ';
  out += subsystem;
  out += ": ";
  out += message;
  if (fields.is_object()) {
    for (const auto& [key, v] : fields.members()) {
      out += ' ';
      out += key;
      out += '=';
      append_text_value(out, v);
    }
  }
  return out;
}

LogLine::LogLine(LogLevel level, const char* subsystem, std::string message)
    : live_(log_enabled(level)),
      level_(level),
      subsystem_(subsystem),
      message_(std::move(message)) {}

LogLine::~LogLine() {
  if (!live_) return;
  auto& s = log_internal::state();
  double ts = 0.0;
  LogFormat format = LogFormat::Text;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    ts = log_internal::uptime_locked(s);
    format = log_internal::format_locked(s);
  }
  // Format off-lock; take the mutex only for the sink write so long
  // messages never serialize formatting work across threads.
  std::string line =
      format_log_line(format, ts, level_, subsystem_, message_, fields_);
  line += '\n';
  std::lock_guard<std::mutex> lock(s.mu);
  std::FILE* sink = s.sink != nullptr ? s.sink : stderr;
  std::fwrite(line.data(), 1, line.size(), sink);
  std::fflush(sink);
}

LogLine& LogLine::with(const char* key, const std::string& v) {
  if (live_) fields_[key] = v;
  return *this;
}

LogLine& LogLine::with(const char* key, const char* v) {
  if (live_) fields_[key] = v;
  return *this;
}

LogLine& LogLine::with(const char* key, std::int64_t v) {
  if (live_) fields_[key] = v;
  return *this;
}

LogLine& LogLine::with(const char* key, double v) {
  if (live_) fields_[key] = v;
  return *this;
}

LogLine log_debug(const char* subsystem, std::string message) {
  return {LogLevel::Debug, subsystem, std::move(message)};
}

LogLine log_info(const char* subsystem, std::string message) {
  return {LogLevel::Info, subsystem, std::move(message)};
}

LogLine log_warn(const char* subsystem, std::string message) {
  return {LogLevel::Warn, subsystem, std::move(message)};
}

LogLine log_error(const char* subsystem, std::string message) {
  return {LogLevel::Error, subsystem, std::move(message)};
}

}  // namespace rdo::obs
