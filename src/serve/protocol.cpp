#include "serve/protocol.h"

#include <cmath>
#include <limits>

#include "core/check.h"
#include "core/opt/pipeline.h"

namespace rdo::serve {

namespace {

using rdo::obs::Json;

// Request-level structural ceilings (service-level sample budgets are
// enforced separately by serve::kMaxRequestSamples).
constexpr std::int64_t kMaxInlineValues = std::int64_t{1} << 24;
constexpr std::int64_t kMaxBatch = 1 << 16;
constexpr int kMaxLabelClasses = 1 << 16;

[[noreturn]] void bad(const std::string& what) {
  throw ProtocolError(ErrorCode::BadRequest, what);
}

const Json& member(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (v == nullptr) bad(std::string("missing member \"") + key + '"');
  return *v;
}

std::int64_t as_int(const Json& v, const char* key) {
  if (!v.is_int()) bad(std::string("member \"") + key + "\" must be an integer");
  return v.as_int();
}

double as_finite(const Json& v, const char* key) {
  if (!v.is_number()) bad(std::string("member \"") + key + "\" must be a number");
  const double d = v.as_double();
  if (!std::isfinite(d)) bad(std::string("member \"") + key + "\" must be finite");
  return d;
}

/// A finite number that a float holds without overflowing to +-inf.
float as_finite_float(const Json& v, const char* key) {
  const double d = as_finite(v, key);
  if (std::fabs(d) > std::numeric_limits<float>::max()) {
    bad(std::string("member \"") + key + "\" is out of float range");
  }
  return static_cast<float>(d);
}

const std::string& as_str(const Json& v, const char* key) {
  if (!v.is_string()) bad(std::string("member \"") + key + "\" must be a string");
  return v.as_string();
}

/// An integer member that fits the int field it sets; the field's range
/// is check_options'.
int as_int32(const Json& v, const char* key) {
  const std::int64_t n = as_int(v, key);
  if (n != static_cast<int>(n)) {
    bad(std::string("member \"") + key + "\" out of range");
  }
  return static_cast<int>(n);
}

/// Apply one "config" override onto `o`. Only names and types are checked
/// here; parse_request holds the merged options to check_options.
void apply_config_key(rdo::core::DeployOptions& o, const std::string& key,
                      const Json& v) {
  if (key == "scheme") {
    const auto s = rdo::core::parse_scheme(as_str(v, "scheme"));
    if (!s) bad("unknown scheme \"" + v.as_string() + '"');
    o.scheme = *s;
  } else if (key == "sigma") {
    o.variation.sigma = as_finite(v, "sigma");
  } else if (key == "ddv_fraction") {
    o.variation.ddv_fraction = as_finite(v, "ddv_fraction");
  } else if (key == "scope") {
    const std::string& s = as_str(v, "scope");
    if (s == "per_weight") {
      o.variation.scope = rdo::rram::VariationScope::PerWeight;
    } else if (s == "per_cell") {
      o.variation.scope = rdo::rram::VariationScope::PerCell;
    } else {
      bad("unknown scope \"" + s + "\" (per_weight|per_cell)");
    }
  } else if (key == "cell") {
    const std::string& s = as_str(v, "cell");
    if (s == "SLC") {
      o.cell.kind = rdo::rram::CellKind::SLC;
    } else if (s == "MLC2") {
      o.cell.kind = rdo::rram::CellKind::MLC2;
    } else {
      bad("unknown cell \"" + s + "\" (SLC|MLC2)");
    }
  } else if (key == "on_off_ratio") {
    o.cell.on_off_ratio = as_finite(v, "on_off_ratio");
  } else if (key == "m") {
    o.offsets.m = as_int32(v, "m");
  } else if (key == "offset_bits") {
    o.offsets.offset_bits = as_int32(v, "offset_bits");
  } else if (key == "weight_bits") {
    o.weight_bits = as_int32(v, "weight_bits");
  } else if (key == "seed") {
    if (!v.is_uint()) bad("member \"seed\" must be an integer in [0, 2^64)");
    o.seed = v.as_uint();
  } else if (key == "lut_k_sets") {
    o.lut_k_sets = as_int32(v, "lut_k_sets");
  } else if (key == "lut_j_cycles") {
    o.lut_j_cycles = as_int32(v, "lut_j_cycles");
  } else if (key == "grad_samples") {
    o.grad_samples = as_int(v, "grad_samples");
  } else if (key == "pwt_epochs") {
    o.pwt.epochs = as_int32(v, "pwt_epochs");
  } else if (key == "opt_passes") {
    const std::string& s = as_str(v, "opt_passes");
    std::string err;
    if (!rdo::core::opt::parse_pass_list(s, &err)) bad(err);
    o.opt_passes = s;
  } else {
    bad("unknown config key \"" + key + '"');
  }
}

DataSelector parse_data(const Json& d) {
  if (!d.is_object()) bad("\"data\" must be an object");
  DataSelector sel;
  if (d.find("split") != nullptr) {
    // Slice of a registered dataset.
    for (const auto& [key, v] : d.members()) {
      if (key == "split") {
        sel.split = as_str(v, "split");
        if (sel.split != "train" && sel.split != "test") {
          bad("unknown split \"" + sel.split + "\" (train|test)");
        }
      } else if (key == "offset") {
        sel.offset = as_int(v, "offset");
        if (sel.offset < 0) bad("offset must be non-negative");
      } else if (key == "count") {
        sel.count = as_int(v, "count");
        if (sel.count < 0) bad("count must be non-negative");
      } else {
        bad("unknown data key \"" + key + '"');
      }
    }
    return sel;
  }

  // Inline batch: shape + row-major image values + labels.
  sel.split.clear();
  const Json& shape = member(d, "shape");
  if (!shape.is_array() || shape.size() < 2) {
    bad("\"shape\" must be an array of at least rank 2");
  }
  std::vector<std::int64_t> dims;
  std::int64_t total = 1;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    const std::int64_t dim = as_int(shape.at(i), "shape");
    if (dim < 1 || dim > kMaxInlineValues) bad("shape dimension out of range");
    if (total > kMaxInlineValues / dim) bad("inline batch too large");
    total *= dim;
    dims.push_back(dim);
  }
  const Json& images = member(d, "images");
  if (!images.is_array() ||
      static_cast<std::int64_t>(images.size()) != total) {
    bad("\"images\" must be an array of shape-product length");
  }
  sel.inline_images = rdo::nn::Tensor(dims);
  for (std::size_t i = 0; i < images.size(); ++i) {
    sel.inline_images[static_cast<std::int64_t>(i)] =
        as_finite_float(images.at(i), "images");
  }
  const Json& labels = member(d, "labels");
  if (!labels.is_array() ||
      static_cast<std::int64_t>(labels.size()) != dims[0]) {
    bad("\"labels\" must be an array of shape[0] length");
  }
  sel.inline_labels.reserve(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::int64_t l = as_int(labels.at(i), "labels");
    if (l < 0 || l >= kMaxLabelClasses) bad("label out of range");
    sel.inline_labels.push_back(static_cast<int>(l));
  }
  for (const auto& [key, v] : d.members()) {
    (void)v;
    if (key != "shape" && key != "images" && key != "labels") {
      bad("unknown data key \"" + key + '"');
    }
  }
  return sel;
}

}  // namespace

const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::Internal: return "internal";
  }
  return "?";
}

ServeRequest parse_request(const Json& doc,
                           const rdo::core::DeployOptions& base) {
  if (!doc.is_object()) bad("request must be a JSON object");
  ServeRequest req;
  req.options = base;

  if (const Json* id = doc.find("id")) {
    if (!id->is_int() && !id->is_string() && !id->is_null()) {
      bad("\"id\" must be an integer or a string");
    }
    req.id = *id;
  }

  const std::string& op = as_str(member(doc, "op"), "op");
  if (op == "ping") {
    req.op = Op::Ping;
  } else if (op == "stats") {
    req.op = Op::Stats;
  } else if (op == "evaluate") {
    req.op = Op::Evaluate;
  } else {
    bad("unknown op \"" + op + "\" (ping|stats|evaluate)");
  }

  for (const auto& [key, v] : doc.members()) {
    if (key == "id" || key == "op") continue;
    if (req.op != Op::Evaluate) bad("unknown request key \"" + key + '"');
    if (key == "config") {
      if (!v.is_object()) bad("\"config\" must be an object");
      for (const auto& [ck, cv] : v.members()) {
        apply_config_key(req.options, ck, cv);
      }
    } else if (key == "cycle") {
      const std::int64_t n = as_int(v, "cycle");
      if (n < 0) bad("cycle must be non-negative");
      req.cycle = static_cast<std::uint64_t>(n);
    } else if (key == "batch") {
      const std::int64_t n = as_int(v, "batch");
      if (n < 1 || n > kMaxBatch) bad("batch out of range [1, 2^16]");
      req.batch = n;
    } else if (key == "data") {
      req.data = parse_data(v);
    } else {
      bad("unknown request key \"" + key + '"');
    }
  }

  // The merged options must pass: weight_bits and cell, say, are checked
  // together.
  try {
    rdo::core::check_options(req.options);
  } catch (const rdo::core::ContractViolation& e) {
    bad(e.what());
  }
  return req;
}

std::string ok_response(const Json& id, Json result) {
  Json r = Json::object();
  r["id"] = id;
  r["ok"] = true;
  r["result"] = std::move(result);
  return r.dump();
}

std::string error_response(const Json& id, ErrorCode code,
                           const std::string& message) {
  Json e = Json::object();
  e["code"] = to_string(code);
  e["message"] = message;
  Json r = Json::object();
  r["id"] = id;
  r["ok"] = false;
  r["error"] = std::move(e);
  return r.dump();
}

}  // namespace rdo::serve
