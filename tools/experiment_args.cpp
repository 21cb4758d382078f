#include "experiment_args.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <initializer_list>

#include "core/deploy.h"

namespace rdo::tools {

namespace {

ParseOutcome fail(const std::string& msg) { return {false, msg}; }

/// Every numeric flag is non-negative, so a token may carry no leading
/// whitespace or sign: strto* would skip the one and take the other
/// (strtoull wraps "-1" to 2^64 - 1).
bool plain_start(const char* s) {
  return s != nullptr && *s != '\0' &&
         std::isspace(static_cast<unsigned char>(*s)) == 0 && *s != '+' &&
         *s != '-';
}

/// Strict strtod: the whole token must parse to a finite value, no
/// overflow.
bool parse_double(const char* s, double& out) {
  if (!plain_start(s)) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  out = v;
  return true;
}

/// Strict strtoll confined to int range.
bool parse_int(const char* s, int& out) {
  if (!plain_start(s)) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  if (v < -2147483648ll || v > 2147483647ll) return false;
  out = static_cast<int>(v);
  return true;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (!plain_start(s)) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool one_of(const std::string& v, std::initializer_list<const char*> allowed) {
  for (const char* a : allowed) {
    if (v == a) return true;
  }
  return false;
}

}  // namespace

const char* experiment_usage() {
  return
      "rdo_experiment — deploy a model onto simulated RRAM crossbars\n\n"
      "  --model   mlp | lenet | resnet | vgg        (default mlp)\n"
      "  --scheme  plain | vawo | vawo* | pwt | vawo*+pwt\n"
      "  --cell    slc | mlc2                        (default slc)\n"
      "  --scope   per-weight | per-cell             (default per-weight)\n"
      "  --sigma   <double>   log-normal sigma, in [0, 8] (default 0.5)\n"
      "  --ddv     <double>   DDV share, in [0, 1]   (default 0)\n"
      "  --m       <int>      sharing granularity, 1..2^20 (default 16)\n"
      "  --bits    <int>      offset width, 1..16    (default 8)\n"
      "  --repeats <int>      programming cycles, >= 1 (default 3)\n"
      "  --seed    <uint64>\n"
      "  --json    <path>     write a schema-versioned result document\n";
}

ParseOutcome parse_experiment_args(int argc, const char* const* argv,
                                   ExperimentArgs& out) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = nullptr;
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    auto missing = [&]() { return fail("missing value for " + flag); };

    if (flag == "--help" || flag == "-h") {
      out.help = true;
    } else if (flag == "--model") {
      if ((value = next()) == nullptr) return missing();
      out.model = value;
      if (!one_of(out.model, {"mlp", "lenet", "resnet", "vgg"})) {
        return fail("unknown model '" + out.model +
                    "' (expected mlp|lenet|resnet|vgg)");
      }
    } else if (flag == "--scheme") {
      if ((value = next()) == nullptr) return missing();
      out.scheme = value;
      // Validated against the core scheme table (the inverse of
      // core::to_string) so the CLI can never drift from the library.
      if (!rdo::core::parse_scheme(out.scheme)) {
        return fail("unknown scheme '" + out.scheme +
                    "' (expected plain|vawo|vawo*|pwt|vawo*+pwt)");
      }
    } else if (flag == "--cell") {
      if ((value = next()) == nullptr) return missing();
      out.cell = value;
      if (!one_of(out.cell, {"slc", "mlc2"})) {
        return fail("unknown cell '" + out.cell + "' (expected slc|mlc2)");
      }
    } else if (flag == "--scope") {
      if ((value = next()) == nullptr) return missing();
      out.scope = value;
      if (!one_of(out.scope, {"per-weight", "per-cell"})) {
        return fail("unknown scope '" + out.scope +
                    "' (expected per-weight|per-cell)");
      }
    } else if (flag == "--sigma") {
      if ((value = next()) == nullptr) return missing();
      if (!parse_double(value, out.sigma) || out.sigma < 0.0 ||
          out.sigma > rdo::core::kMaxSigma) {
        return fail(std::string("--sigma expects a number in [0, 8], got '") +
                    value + "'");
      }
    } else if (flag == "--ddv") {
      if ((value = next()) == nullptr) return missing();
      if (!parse_double(value, out.ddv) || out.ddv < 0.0 || out.ddv > 1.0) {
        return fail(std::string("--ddv expects a number in [0, 1], got '") +
                    value + "'");
      }
    } else if (flag == "--m") {
      if ((value = next()) == nullptr) return missing();
      if (!parse_int(value, out.m) || out.m < 1 ||
          out.m > rdo::core::kMaxOffsetGroupSize) {
        return fail(std::string("--m expects an integer in [1, 2^20], got '") +
                    value + "'");
      }
    } else if (flag == "--bits") {
      if ((value = next()) == nullptr) return missing();
      if (!parse_int(value, out.offset_bits) || out.offset_bits < 1 ||
          out.offset_bits > rdo::core::kMaxOffsetBits) {
        return fail(std::string("--bits expects an integer in [1, 16], "
                                "got '") +
                    value + "'");
      }
    } else if (flag == "--repeats") {
      if ((value = next()) == nullptr) return missing();
      if (!parse_int(value, out.repeats) || out.repeats < 1) {
        return fail(std::string("--repeats expects an integer >= 1, got '") +
                    value + "'");
      }
    } else if (flag == "--seed") {
      if ((value = next()) == nullptr) return missing();
      if (!parse_u64(value, out.seed)) {
        return fail(std::string("--seed expects an unsigned integer, got '") +
                    value + "'");
      }
    } else if (flag == "--json") {
      if ((value = next()) == nullptr) return missing();
      out.json_path = value;
      if (out.json_path.empty()) return fail("--json expects a path");
    } else {
      return fail("unknown flag " + flag);
    }
  }
  return {};
}

}  // namespace rdo::tools
