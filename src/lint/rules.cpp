// The built-in rule catalogue. Every rule encodes a contract the
// compiler cannot see (see DESIGN.md §5 for the catalogue and the
// policy for adding one):
//
//   naked-read         PR 5: unchecked stream reads become silent garbage
//   nondeterminism     PR 1/4: all randomness must come from seeded Rng
//   unordered-iter     PR 2: hashed iteration order leaks into BENCH
//   unbudgeted-alloc   PR 5/7: parsed counts must be bounded before they
//                      size an allocation
//   float-reduce-order PR 1: shared accumulators inside parallel_for
//                      bodies break bit-determinism
//   metric-name        PR 8: MetricsRegistry naming convention
//   pass-invariant     PR 9: every optimizer pass asserts an invariant
//   naked-getenv       env knobs read through one blessed choke point
//
// The first three are token ports of the PR 5 regex lint; their
// messages and per-line reporting are kept byte-compatible, pinned by
// the legacy-parity fixture tree (tests/data/lint/legacy).
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lint/engine.h"
#include "lint/rule.h"

namespace rdo::lint {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

/// One finding per (rule, line), matching the old per-line regex scan.
bool already_on_line(const std::vector<Finding>& out, const char* rule,
                     int line) {
  for (auto it = out.rbegin(); it != out.rend(); ++it) {
    if (it->line < line) break;
    if (it->line == line && it->rule == rule) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// naked-read — legacy rule 1

class NakedRead final : public Rule {
 public:
  [[nodiscard]] const char* name() const override { return "naked-read"; }
  [[nodiscard]] const char* description() const override {
    return "every raw stream.read(...) must be followed within three "
           "lines by a stream-state check (gcount, if (!..., or an "
           "RDO_CHECK); route binary reads through a read_exact helper";
  }
  void run(const FileContext& ctx, std::vector<Finding>& out) const override {
    for (int i = 0; i < ctx.ncode(); ++i) {
      if (!(ctx.punct(i, ".") || ctx.punct(i, "->"))) continue;
      const Token& recv = ctx.code(i - 1);
      if (recv.kind != TokKind::Identifier && recv.kind != TokKind::Number) {
        continue;
      }
      if (!ctx.ident(i + 1, "read") || !ctx.punct(i + 2, "(")) continue;
      const int line = ctx.code(i + 1).line;
      if (already_on_line(out, name(), line)) continue;
      if (!state_checked(ctx, i, line)) {
        ctx.report(out, name(),
                   "stream read without a state check within 3 lines; "
                   "route binary reads through a read_exact helper",
                   i + 1);
      }
    }
  }

 private:
  /// A stream-state check on lines [line, line+3]: gcount, an
  /// RDO_CHECK-family macro, `if (!`, or `|| !`.
  static bool state_checked(const FileContext& ctx, int from, int line) {
    // Walk back to the first code token of `line`, then forward.
    int i = from;
    while (i > 0 && ctx.code(i - 1).line >= line) --i;
    for (; i < ctx.ncode() && ctx.code(i).line <= line + 3; ++i) {
      const Token& t = ctx.code(i);
      if (t.kind == TokKind::Identifier) {
        if (contains(t.text, "gcount") || starts_with(t.text, "RDO_CHECK")) {
          return true;
        }
        if (t.text == "if" && ctx.punct(i + 1, "(") && ctx.punct(i + 2, "!")) {
          return true;
        }
      } else if (t.kind == TokKind::Punct && t.text == "||" &&
                 ctx.punct(i + 1, "!")) {
        return true;
      }
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// nondeterminism — legacy rule 2

class Nondeterminism final : public Rule {
 public:
  [[nodiscard]] const char* name() const override { return "nondeterminism"; }
  [[nodiscard]] const char* description() const override {
    return "rand()/srand()/time()/std::random_device are banned; every "
           "random draw must come from a seeded rdo::nn::Rng or the "
           "cross-backend parity gate breaks";
  }
  void run(const FileContext& ctx, std::vector<Finding>& out) const override {
    static const char* const kMessage =
        "rand()/srand()/time()/random_device are banned; draw "
        "from a seeded rdo::nn::Rng instead";
    for (int i = 0; i < ctx.ncode(); ++i) {
      const Token& t = ctx.code(i);
      if (t.kind != TokKind::Identifier) continue;
      bool hit = false;
      if (contains(t.text, "random_device")) {
        hit = true;
      } else if ((t.text == "rand" || t.text == "srand" || t.text == "time") &&
                 ctx.punct(i + 1, "(")) {
        if (ctx.punct(i - 1, "::")) {
          hit = ctx.ident(i - 2, "std");  // std::time(...) yes, x::time no
        } else if (ctx.punct(i - 1, ".")) {
          hit = false;  // member call on some object
        } else {
          hit = true;
        }
      }
      if (hit && !already_on_line(out, name(), t.line)) {
        ctx.report(out, name(), kMessage, i);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// unordered-iter — legacy rule 3

class UnorderedIter final : public Rule {
 public:
  [[nodiscard]] const char* name() const override { return "unordered-iter"; }
  [[nodiscard]] const char* description() const override {
    return "std::unordered_map/std::unordered_set iteration order is "
           "implementation-defined and leaks into deterministic output; "
           "use std::map or a sorted vector";
  }
  void run(const FileContext& ctx, std::vector<Finding>& out) const override {
    for (int i = 0; i < ctx.ncode(); ++i) {
      const Token& t = ctx.code(i);
      if (t.kind != TokKind::Identifier) continue;
      if (!contains(t.text, "unordered_map") &&
          !contains(t.text, "unordered_set")) {
        continue;
      }
      if (!ctx.punct(i + 1, "<")) continue;
      if (already_on_line(out, name(), t.line)) continue;
      ctx.report(out, name(),
                 "hashed-container iteration order is nondeterministic "
                 "and leaks into BENCH sections; use std::map or a "
                 "sorted vector",
                 i);
    }
  }
};

// ---------------------------------------------------------------------------
// unbudgeted-alloc — the PR 5/7 loader invariant

/// Identifiers whose call results are "freshly parsed counts".
bool taint_source(const std::string& id) {
  return id == "scalar" || id == "as_int" || id == "atoi" || id == "atol" ||
         id == "atoll" || starts_with(id, "read_") ||
         starts_with(id, "strto") || starts_with(id, "stou") ||
         id == "stoi" || id == "stol" || id == "stoll";
}

class UnbudgetedAlloc final : public Rule {
 public:
  [[nodiscard]] const char* name() const override {
    return "unbudgeted-alloc";
  }
  [[nodiscard]] const char* description() const override {
    return "resize/reserve sized by a freshly parsed count with no "
           "RDO_CHECK/require/byte-budget between parse and allocation; "
           "a hostile header must never drive the allocator";
  }
  void run(const FileContext& ctx, std::vector<Finding>& out) const override {
    // Taint window: a parsed count stays suspect for this many lines
    // unless a check mentions it first. Long enough for real loader
    // bodies, short enough not to leak across functions.
    constexpr int kWindowLines = 40;
    std::map<std::string, int> tainted;  // name -> line parsed

    for (int i = 0; i < ctx.ncode(); ++i) {
      const Token& t = ctx.code(i);
      // Expire stale taint.
      for (auto it = tainted.begin(); it != tainted.end();) {
        if (t.line > it->second + kWindowLines) {
          it = tainted.erase(it);
        } else {
          ++it;
        }
      }
      if (t.kind != TokKind::Identifier) continue;

      // Sanitizers: require(...), RDO_CHECK*(...), RDO_BOUNDS(...), and
      // if/while/for conditions clear every count they mention.
      if ((t.text == "require" || starts_with(t.text, "RDO_CHECK") ||
           t.text == "RDO_BOUNDS" || t.text == "if" || t.text == "while" ||
           t.text == "for") &&
          ctx.punct(i + 1, "(")) {
        const int close = ctx.matching(i + 1);
        for (int j = i + 2; j < close; ++j) {
          const Token& a = ctx.code(j);
          if (a.kind == TokKind::Identifier) tainted.erase(a.text);
        }
        continue;
      }

      // Sink: x.resize(...) / x.reserve(...) with a tainted or directly
      // parsed size expression.
      if ((t.text == "resize" || t.text == "reserve") &&
          (ctx.punct(i - 1, ".") || ctx.punct(i - 1, "->")) &&
          ctx.punct(i + 1, "(")) {
        const int close = ctx.matching(i + 1);
        for (int j = i + 2; j < close; ++j) {
          const Token& a = ctx.code(j);
          if (a.kind != TokKind::Identifier) continue;
          if (tainted.count(a.text) != 0 || taint_source(a.text)) {
            ctx.report(out, name(),
                       "allocation sized by freshly parsed count \"" +
                           a.text +
                           "\"; bound it (RDO_CHECK/require/byte budget) "
                           "before resize/reserve",
                       i);
            break;
          }
        }
        i = close;
        continue;
      }

      // Taint source A: `x = ... parse(...) ...;`
      if (ctx.punct(i + 1, "=") && !ctx.punct(i + 2, "=")) {
        bool from_parse = false;
        int j = i + 2;
        for (; j < ctx.ncode() && !ctx.punct(j, ";"); ++j) {
          const Token& a = ctx.code(j);
          if (a.kind == TokKind::Identifier && taint_source(a.text)) {
            from_parse = true;
          }
        }
        if (from_parse) {
          tainted[t.text] = t.line;
        } else {
          tainted.erase(t.text);  // reassigned from something benign
        }
        i = j;
        continue;
      }

      // Taint source B: out-parameter of a read helper —
      // read_exact(f, &size, ...).
      if (taint_source(t.text) && ctx.punct(i + 1, "(")) {
        const int close = ctx.matching(i + 1);
        for (int j = i + 2; j < close; ++j) {
          if (ctx.punct(j, "&") &&
              ctx.code(j + 1).kind == TokKind::Identifier &&
              (ctx.punct(j + 2, ",") || ctx.punct(j + 2, ")"))) {
            tainted[ctx.code(j + 1).text] = ctx.code(j + 1).line;
          }
        }
        i = close;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// float-reduce-order — PR 1 bit-determinism inside parallel bodies

class FloatReduceOrder final : public Rule {
 public:
  [[nodiscard]] const char* name() const override {
    return "float-reduce-order";
  }
  [[nodiscard]] const char* description() const override {
    return "compound assignment to a shared variable inside a "
           "parallel_for body accumulates in chunk-completion order; "
           "accumulate per chunk and reduce deterministically";
  }
  void run(const FileContext& ctx, std::vector<Finding>& out) const override {
    for (int i = 0; i < ctx.ncode(); ++i) {
      if (!ctx.ident(i, "parallel_for") || !ctx.punct(i + 1, "(")) continue;
      const int close = ctx.matching(i + 1);
      scan_body(ctx, i + 2, close, out);
      i = close;
    }
  }

 private:
  void scan_body(const FileContext& ctx, int begin, int end,
                 std::vector<Finding>& out) const {
    // Names declared inside the extent (lambda params and locals):
    // an identifier preceded by a type-ish token is a declaration.
    std::vector<std::string> declared;
    const auto is_declared = [&](const std::string& n) {
      for (const std::string& d : declared) {
        if (d == n) return true;
      }
      return false;
    };
    for (int j = begin; j < end; ++j) {
      const Token& t = ctx.code(j);
      if (t.kind == TokKind::Identifier) {
        const Token& prev = ctx.code(j - 1);
        if (prev.kind == TokKind::Identifier || prev.text == ">" ||
            prev.text == "&" || prev.text == "*") {
          declared.push_back(t.text);
        }
      }
      if (!(ctx.punct(j + 1, "+=") || ctx.punct(j + 1, "-="))) continue;
      if (t.kind != TokKind::Identifier) continue;  // c[i] += is fine
      const Token& before = ctx.code(j - 1);
      if (before.text == "." || before.text == "->" || before.text == "::") {
        continue;  // member access: counted elsewhere, not a bare shared var
      }
      if (is_declared(t.text)) continue;
      ctx.report(out, name(),
                 "\"" + t.text +
                     "\" is accumulated across parallel_for chunks; "
                     "chunk-completion order is nondeterministic — use a "
                     "per-chunk accumulator and a deterministic reduce",
                 j);
    }
  }
};

// ---------------------------------------------------------------------------
// metric-name — the PR 8 MetricsRegistry naming convention

class MetricName final : public Rule {
 public:
  [[nodiscard]] const char* name() const override { return "metric-name"; }
  [[nodiscard]] const char* description() const override {
    return "MetricsRegistry instrument names must be snake_case with a "
           "known subsystem prefix and SI unit suffixes (_seconds, "
           "_bytes), without an rdo_ namespace prefix";
  }
  void run(const FileContext& ctx, std::vector<Finding>& out) const override {
    for (int i = 0; i < ctx.ncode(); ++i) {
      if (!(ctx.punct(i, ".") || ctx.punct(i, "->"))) continue;
      const Token& method = ctx.code(i + 1);
      if (method.kind != TokKind::Identifier ||
          (method.text != "counter" && method.text != "gauge" &&
           method.text != "histogram")) {
        continue;
      }
      if (!ctx.punct(i + 2, "(")) continue;
      const Token& lit = ctx.code(i + 3);
      if (lit.kind != TokKind::String || lit.text.size() < 2) continue;
      const std::string metric =
          lit.text.substr(1, lit.text.size() - 2);  // strip quotes
      const std::string why = violation(metric, method.text);
      if (!why.empty()) {
        ctx.report(out, name(),
                   "metric \"" + metric + "\" " + why, i + 3);
      }
    }
  }

 private:
  static std::string violation(const std::string& m,
                               const std::string& kind) {
    if (m.empty()) return "is empty";
    for (const char c : m) {
      if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
        return "is not lowercase snake_case";
      }
    }
    if (m.front() == '_' || m.back() == '_' || contains(m, "__")) {
      return "is not well-formed snake_case (leading/trailing/double _)";
    }
    if (starts_with(m, "rdo_")) {
      return "must not carry the rdo_ prefix; the subsystem prefix comes "
             "first";
    }
    bool prefixed = false;
    for (const char* p : {"serve_", "deploy_", "opt_", "pool_", "process_",
                          "pwt_", "bench_", "lint_"}) {
      if (starts_with(m, p)) {
        prefixed = true;
        break;
      }
    }
    if (!prefixed) {
      return "lacks a known subsystem prefix (serve_, deploy_, opt_, "
             "pool_, process_, pwt_, bench_, lint_)";
    }
    for (const char* bad : {"_ms", "_msec", "_millis", "_us", "_usec",
                            "_micros", "_ns", "_nsec", "_nanos"}) {
      if (ends_with(m, bad)) {
        return "uses a sub-second unit suffix; express time in _seconds";
      }
    }
    for (const char* bad : {"_kb", "_mb", "_gb", "_kib", "_mib"}) {
      if (ends_with(m, bad)) {
        return "uses a scaled byte suffix; express sizes in _bytes";
      }
    }
    if (kind == "histogram" && !ends_with(m, "_seconds")) {
      return "names a latency histogram and must end in _seconds";
    }
    return "";
  }
};

// ---------------------------------------------------------------------------
// pass-invariant — PR 9: every optimizer pass asserts something

class PassInvariant final : public Rule {
 public:
  [[nodiscard]] const char* name() const override { return "pass-invariant"; }
  [[nodiscard]] const char* description() const override {
    return "every class deriving from opt::Pass must override check() "
           "and actually assert (RDO_CHECK) an invariant over the "
           "transformed plan";
  }
  void run(const FileContext& ctx, std::vector<Finding>& out) const override {
    for (int i = 0; i < ctx.ncode(); ++i) {
      // Base-clause use: `public Pass` (possibly qualified opt::Pass).
      if (!ctx.ident(i, "Pass") || !ctx.ident(i - 1, "public")) continue;
      const int body = find_body(ctx, i);
      if (body >= ctx.ncode()) continue;
      const int close = ctx.matching(body);
      bool has_check = false;
      bool has_assert = false;
      for (int j = body; j < close; ++j) {
        const Token& t = ctx.code(j);
        if (t.kind != TokKind::Identifier) continue;
        if (t.text == "check" && ctx.punct(j + 1, "(")) has_check = true;
        if (starts_with(t.text, "RDO_CHECK")) has_assert = true;
      }
      if (!has_check) {
        ctx.report(out, name(),
                   "pass derives from opt::Pass but never overrides "
                   "check(); every registered pass must name its "
                   "invariant checker",
                   i);
      } else if (!has_assert) {
        ctx.report(out, name(),
                   "pass invariant check() asserts nothing (no RDO_CHECK "
                   "in the class); a vacuous checker hides malformed "
                   "plans",
                   i);
      }
      i = close;
    }
  }

 private:
  static int find_body(const FileContext& ctx, int from) {
    for (int j = from; j < ctx.ncode() && j < from + 16; ++j) {
      if (ctx.punct(j, "{")) return j;
    }
    return ctx.ncode();
  }
};

// ---------------------------------------------------------------------------
// naked-getenv — one blessed choke point for env knobs

class NakedGetenv final : public Rule {
 public:
  [[nodiscard]] const char* name() const override { return "naked-getenv"; }
  [[nodiscard]] const char* description() const override {
    return "std::getenv outside the blessed choke point "
           "(src/obs/envvar.cpp); read knobs through rdo::obs::env_knob "
           "so every knob stays greppable in one place";
  }
  void run(const FileContext& ctx, std::vector<Finding>& out) const override {
    if (ends_with(ctx.path(), "src/obs/envvar.cpp") ||
        ends_with(ctx.path(), "obs/envvar.cpp")) {
      return;
    }
    for (int i = 0; i < ctx.ncode(); ++i) {
      const Token& t = ctx.code(i);
      if (t.kind != TokKind::Identifier ||
          (t.text != "getenv" && t.text != "secure_getenv")) {
        continue;
      }
      if (!ctx.punct(i + 1, "(")) continue;
      ctx.report(out, name(),
                 "direct getenv; read environment knobs through "
                 "rdo::obs::env_knob (src/obs/envvar.cpp) so the knob "
                 "surface stays in one blessed file",
                 i);
    }
  }
};

}  // namespace

Engine::Engine() {
  rules_.push_back(std::make_unique<NakedRead>());
  rules_.push_back(std::make_unique<Nondeterminism>());
  rules_.push_back(std::make_unique<UnorderedIter>());
  rules_.push_back(std::make_unique<UnbudgetedAlloc>());
  rules_.push_back(std::make_unique<FloatReduceOrder>());
  rules_.push_back(std::make_unique<MetricName>());
  rules_.push_back(std::make_unique<PassInvariant>());
  rules_.push_back(std::make_unique<NakedGetenv>());
}

}  // namespace rdo::lint
