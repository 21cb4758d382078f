// Minimal dependency-free JSON document model for structured results.
//
// Design constraints (see DESIGN.md / ISSUE 2): the serialized form must
// be *deterministic* — object members keep insertion order, numbers are
// formatted with a fixed shortest-round-trip policy — so two runs that
// produce the same values produce byte-identical files regardless of
// thread count. A small recursive-descent parser is included so tests
// can round-trip documents and tools can validate emitted files; it is
// not a general-purpose validator (no streaming, whole-document only).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rdo::obs {

class Json {
 public:
  /// Int holds an integer in [-2^63, 2^63); UInt one in [2^63, 2^64),
  /// which only an unsigned value (a seed, a hash) reaches. Writer and
  /// parser keep both exact.
  enum class Type { Null, Bool, Int, Double, String, Array, Object, UInt };

  Json() = default;  // null
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(int v) : type_(Type::Int), int_(v) {}
  Json(std::int64_t v) : type_(Type::Int), int_(v) {}
  Json(std::uint64_t v)
      : type_(v > static_cast<std::uint64_t>(INT64_MAX) ? Type::UInt
                                                         : Type::Int),
        int_(static_cast<std::int64_t>(v)) {}
  Json(double v) : type_(Type::Double), double_(v) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::Bool; }
  [[nodiscard]] bool is_int() const { return type_ == Type::Int; }
  /// An integer in [0, 2^64): a non-negative Int, or a UInt.
  [[nodiscard]] bool is_uint() const {
    return (type_ == Type::Int && int_ >= 0) || type_ == Type::UInt;
  }
  /// Int, UInt or Double.
  [[nodiscard]] bool is_number() const {
    return is_int() || type_ == Type::UInt || type_ == Type::Double;
  }
  [[nodiscard]] bool is_string() const { return type_ == Type::String; }
  [[nodiscard]] bool is_array() const { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const { return type_ == Type::Object; }

  /// Typed accessors; throw std::logic_error on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;  ///< requires is_uint()
  [[nodiscard]] double as_double() const;  ///< Int and UInt promote
  [[nodiscard]] const std::string& as_string() const;

  /// Array / object element count (0 for scalars).
  [[nodiscard]] std::size_t size() const;

  /// Array element access (throws std::out_of_range).
  [[nodiscard]] const Json& at(std::size_t i) const;
  /// Append to an array (null converts to array first).
  Json& push_back(Json v);

  /// Object member access: inserts a null member when absent (null
  /// converts to object first). Insertion order is serialization order.
  Json& operator[](const std::string& key);
  /// Lookup without insertion; nullptr when absent or not an object.
  /// Lvalue-only: the pointer aims into this document, so calling it on
  /// a temporary would dangle the moment the statement ends (a real
  /// use-after-free once caught by the ASan preset in tests).
  [[nodiscard]] const Json* find(const std::string& key) const&;
  const Json* find(const std::string& key) const&& = delete;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const;

  /// Serialize. indent < 0: compact one-line form; indent >= 0: pretty-
  /// printed with that many spaces per level. Both forms are stable.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parse a complete JSON document; throws std::runtime_error with a
  /// byte offset on malformed input.
  static Json parse(const std::string& text);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;  ///< Int, or the bits of a UInt
  double double_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;

  void dump_to(std::string& out, int indent, int depth) const;
};

/// Write `doc` pretty-printed (2-space indent) to `path` with a trailing
/// newline; throws std::runtime_error on I/O failure.
void write_json_file(const Json& doc, const std::string& path);

/// Read and parse a JSON file; throws std::runtime_error on I/O or parse
/// failure.
Json read_json_file(const std::string& path);

}  // namespace rdo::obs
