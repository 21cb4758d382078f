#include "obs/json.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace rdo::obs {

namespace {

[[noreturn]] void type_error(const char* want, Json::Type got) {
  throw std::logic_error(std::string("Json: expected ") + want +
                         ", value holds type #" +
                         std::to_string(static_cast<int>(got)));
}

/// Shortest decimal form that round-trips the double: try increasing
/// precision until strtod recovers the exact bits. Deterministic for a
/// given value, and keeps common values ("0.5") readable.
std::string format_double(double v) {
  // JSON has no NaN/Inf; both map to null so strict parsers (and our
  // own) accept the output.
  if (std::isnan(v) || std::isinf(v)) return "null";
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  // Ensure the token reads back as a double, not an integer, so that
  // parse(dump(x)) preserves the Int/Double distinction.
  std::string s(buf);
  if (s.find_first_of(".eE") == std::string::npos) s += ".0";
  return s;
}

void escape_string(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Recursive-descent parser over the whole in-memory document.
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;

  // Far deeper than any BENCH/trace document, but bounded: without it a
  // hostile "[[[[..." input recurses once per byte and overflows the
  // stack (found by fuzz/fuzz_json.cpp).
  static constexpr int kMaxDepth = 192;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("Json::parse: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_ws();
    if (depth_ >= kMaxDepth) fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      default: return parse_number();
    }
  }

  Json parse_object() {
    ++depth_;
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return obj;
    }
  }

  Json parse_array() {
    ++depth_;
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The writer only emits \u00XX for control bytes; decode the
          // BMP code point as UTF-8 for general inputs.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    const std::string tok = s_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("bad number");
    const bool integral =
        tok.find_first_of(".eE") == std::string::npos;
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(tok.c_str(), &end, 10);
      if (end == tok.c_str() + tok.size() && errno != ERANGE) {
        return Json(static_cast<std::int64_t>(v));
      }
      if (tok[0] != '-') {
        // Above INT64_MAX: exact up to 2^64 - 1, a double beyond.
        errno = 0;
        const unsigned long long u = std::strtoull(tok.c_str(), &end, 10);
        if (end == tok.c_str() + tok.size() && errno != ERANGE) {
          return Json(static_cast<std::uint64_t>(u));
        }
      }
    }
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail("bad number");
    return Json(d);
  }
};

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

std::int64_t Json::as_int() const {
  if (type_ != Type::Int) type_error("int", type_);
  return int_;
}

std::uint64_t Json::as_uint() const {
  if (!is_uint()) type_error("unsigned int", type_);
  return static_cast<std::uint64_t>(int_);
}

double Json::as_double() const {
  if (type_ == Type::Int) return static_cast<double>(int_);
  if (type_ == Type::UInt) return static_cast<double>(as_uint());
  if (type_ != Type::Double) type_error("number", type_);
  return double_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return str_;
}

std::size_t Json::size() const {
  if (type_ == Type::Array) return arr_.size();
  if (type_ == Type::Object) return obj_.size();
  return 0;
}

const Json& Json::at(std::size_t i) const {
  if (type_ != Type::Array) type_error("array", type_);
  if (i >= arr_.size()) throw std::out_of_range("Json::at: index");
  return arr_[i];
}

Json& Json::push_back(Json v) {
  if (type_ == Type::Null) type_ = Type::Array;
  if (type_ != Type::Array) type_error("array", type_);
  arr_.push_back(std::move(v));
  return arr_.back();
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::Null) type_ = Type::Object;
  if (type_ != Type::Object) type_error("object", type_);
  for (auto& kv : obj_) {
    if (kv.first == key) return kv.second;
  }
  obj_.emplace_back(key, Json());
  return obj_.back().second;
}

const Json* Json::find(const std::string& key) const& {
  if (type_ != Type::Object) return nullptr;
  for (const auto& kv : obj_) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::Object) type_error("object", type_);
  return obj_;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline_pad = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Int: out += std::to_string(int_); break;
    case Type::UInt: out += std::to_string(as_uint()); break;
    case Type::Double: out += format_double(double_); break;
    case Type::String: escape_string(str_, out); break;
    case Type::Array: {
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      if (!arr_.empty()) newline_pad(depth);
      out += ']';
      break;
    }
    case Type::Object: {
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out += ',';
        newline_pad(depth + 1);
        escape_string(obj_[i].first, out);
        out += pretty ? ": " : ":";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!obj_.empty()) newline_pad(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

void write_json_file(const Json& doc, const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("write_json_file: cannot open " + path);
  f << doc.dump(2) << '\n';
  if (!f) throw std::runtime_error("write_json_file: write failed: " + path);
}

Json read_json_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("read_json_file: cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return Json::parse(ss.str());
}

}  // namespace rdo::obs
