#include "obs/diff.h"

#include <cmath>
#include <cstdlib>

namespace rdo::obs {

namespace {

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::Null: return "null";
    case Json::Type::Bool: return "bool";
    case Json::Type::Int: return "int";
    case Json::Type::UInt: return "uint";
    case Json::Type::Double: return "double";
    case Json::Type::String: return "string";
    case Json::Type::Array: return "array";
    case Json::Type::Object: return "object";
  }
  return "?";
}

bool within(double a, double b, double abs_tol, double rel_tol) {
  if (a == b) return true;  // covers ±0 and exact matches
  const double diff = std::fabs(a - b);
  if (diff <= abs_tol) return true;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return diff <= rel_tol * scale;
}

struct Differ {
  const DiffOptions& opt;
  DiffReport& out;

  void regress(const std::string& path, const std::string& what) {
    out.regressions.push_back(path + ": " + what);
  }

  void tolerated(const std::string& path, double base, double cur) {
    out.drifts.push_back(path + ": " + Json(base).dump() + " -> " +
                         Json(cur).dump() + " (within tolerance)");
  }

  /// Deep compare under gauge/result tolerances. Numbers are compared
  /// as doubles (Int promotes); everything else must match exactly:
  /// types, array lengths and element order, and each object's key set.
  /// Objects compare by key, so member order is not a difference
  /// (counters and gauges serialize in name order, results in insertion
  /// order).
  void compare_value(const std::string& path, const Json& base,
                     const Json& cur) {
    if (base.is_number() && cur.is_number()) {
      const double a = base.as_double();
      const double b = cur.as_double();
      const bool a_bad = std::isnan(a) || std::isinf(a);
      const bool b_bad = std::isnan(b) || std::isinf(b);
      if (a_bad || b_bad) {
        if (a_bad != b_bad) regress(path, "non-finite value on one side");
        return;
      }
      if (!within(a, b, opt.abs_tol, opt.rel_tol)) {
        regress(path, base.dump() + " -> " + cur.dump() +
                          " exceeds tolerance");
      } else if (a != b) {
        tolerated(path, a, b);
      }
      return;
    }
    if (base.type() != cur.type()) {
      regress(path, std::string("type changed ") + type_name(base.type()) +
                        " -> " + type_name(cur.type()));
      return;
    }
    switch (base.type()) {
      case Json::Type::Null:
        return;
      case Json::Type::Bool:
        if (base.as_bool() != cur.as_bool()) {
          regress(path, "bool value changed");
        }
        return;
      case Json::Type::String:
        if (base.as_string() != cur.as_string()) {
          regress(path, '"' + base.as_string() + "\" -> \"" +
                            cur.as_string() + '"');
        }
        return;
      case Json::Type::Array: {
        if (base.size() != cur.size()) {
          regress(path, "array length " + std::to_string(base.size()) +
                            " -> " + std::to_string(cur.size()));
          return;
        }
        for (std::size_t i = 0; i < base.size(); ++i) {
          compare_value(path + "[" + std::to_string(i) + "]", base.at(i),
                        cur.at(i));
        }
        return;
      }
      case Json::Type::Object: {
        for (const auto& [key, bval] : base.members()) {
          const Json* cval = cur.find(key);
          if (cval == nullptr) {
            regress(path + "." + key, "missing in current");
            continue;
          }
          compare_value(path + "." + key, bval, *cval);
        }
        for (const auto& [key, cval] : cur.members()) {
          (void)cval;
          if (base.find(key) == nullptr) {
            regress(path + "." + key, "not present in baseline");
          }
        }
        return;
      }
      default:
        return;  // numbers handled above
    }
  }

  void compare_counters(const Json& base, const Json& cur) {
    for (const auto& [key, bval] : base.members()) {
      const std::string path = "counters." + key;
      const Json* cval = cur.find(key);
      if (cval == nullptr) {
        regress(path, "missing in current");
        continue;
      }
      if (!bval.is_int() || !cval->is_int()) {
        regress(path, "counter is not an int");
        continue;
      }
      const std::int64_t a = bval.as_int();
      const std::int64_t b = cval->as_int();
      if (a == b) continue;
      const double scale =
          static_cast<double>(std::max(std::llabs(a), std::llabs(b)));
      if (std::fabs(static_cast<double>(a - b)) <=
          opt.counter_rel_tol * scale) {
        tolerated(path, static_cast<double>(a), static_cast<double>(b));
      } else {
        regress(path, std::to_string(a) + " -> " + std::to_string(b) +
                          " exceeds tolerance");
      }
    }
    for (const auto& [key, cval] : cur.members()) {
      (void)cval;
      if (base.find(key) == nullptr) {
        regress("counters." + key, "not present in baseline");
      }
    }
  }

  /// Failures are part of the gate with zero tolerance: a run that
  /// starts (or stops) failing must surface even when tolerances are
  /// loose.
  void compare_failures(const Json& base, const Json& cur) {
    const DiffOptions exact{};
    Differ strict{exact, out};
    strict.compare_value("failures", base, cur);
  }

  void info_volatile(const char* section, const Json& base,
                     const Json& cur) {
    const Json* b = base.find(section);
    const Json* c = cur.find(section);
    if (b == nullptr || c == nullptr) return;
    if (b->dump() != c->dump()) {
      out.infos.push_back(std::string(section) +
                          ": differs (informational)");
    }
  }
};

const Json* section(const Json& doc, const char* key, Json::Type type,
                    Differ& d) {
  const Json* v = doc.find(key);
  if (v == nullptr || v->type() != type) {
    d.regress(key, v == nullptr ? "section missing" : "section has wrong type");
    return nullptr;
  }
  return v;
}

}  // namespace

DiffReport diff_bench_documents(const Json& baseline, const Json& current,
                                const DiffOptions& opt) {
  DiffReport out;
  Differ d{opt, out};
  if (!baseline.is_object() || !current.is_object()) {
    d.regress("document", "not an object");
    return out;
  }

  const Json* bname = baseline.find("name");
  const Json* cname = current.find("name");
  if (bname == nullptr || cname == nullptr || !bname->is_string() ||
      !cname->is_string()) {
    d.regress("name", "missing harness name");
  } else if (bname->as_string() != cname->as_string()) {
    d.regress("name", '"' + bname->as_string() + "\" vs \"" +
                          cname->as_string() + "\" — different harnesses");
  }

  const Json* bver = baseline.find("schema_version");
  const Json* cver = current.find("schema_version");
  if (bver != nullptr && cver != nullptr && bver->is_int() &&
      cver->is_int() && bver->as_int() != cver->as_int()) {
    out.infos.push_back("schema_version: " + std::to_string(bver->as_int()) +
                        " -> " + std::to_string(cver->as_int()));
  }

  const Json* bc = section(baseline, "counters", Json::Type::Object, d);
  const Json* cc = section(current, "counters", Json::Type::Object, d);
  if (bc != nullptr && cc != nullptr) d.compare_counters(*bc, *cc);

  const Json* bg = section(baseline, "gauges", Json::Type::Object, d);
  const Json* cg = section(current, "gauges", Json::Type::Object, d);
  if (bg != nullptr && cg != nullptr) d.compare_value("gauges", *bg, *cg);

  const Json* br = section(baseline, "results", Json::Type::Object, d);
  const Json* cr = section(current, "results", Json::Type::Object, d);
  if (br != nullptr && cr != nullptr) d.compare_value("results", *br, *cr);

  const Json* bf = section(baseline, "failures", Json::Type::Array, d);
  const Json* cf = section(current, "failures", Json::Type::Array, d);
  if (bf != nullptr && cf != nullptr) d.compare_failures(*bf, *cf);

  d.info_volatile("timing", baseline, current);
  d.info_volatile("pool", baseline, current);
  d.info_volatile("histograms", baseline, current);
  d.info_volatile("env", baseline, current);
  return out;
}

}  // namespace rdo::obs
