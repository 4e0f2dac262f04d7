#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hadas::util {

class JsonWriter;

/// Minimal JSON value: null, bool, number (double), string, array, object.
/// Supports parsing (strict, with position-annotated errors) and compact or
/// pretty serialization. Used for persisting search configurations and
/// results; not a general-purpose JSON library (no comments, no NaN/Inf).
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  /// std::map keeps keys sorted -> deterministic serialization.
  using Object = std::map<std::string, Json>;

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(double value) : type_(Type::kNumber), number_(value) {}
  Json(int value) : type_(Type::kNumber), number_(value) {}
  Json(std::size_t value)
      : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}
  Json(Array value) : type_(Type::kArray), array_(std::move(value)) {}
  Json(Object value) : type_(Type::kObject), object_(std::move(value)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::logic_error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  /// as_number() rounded and range-checked to a non-negative integer.
  std::size_t as_index() const;
  int as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Mutable containers (converts a null value in place).
  Array& make_array();
  Object& make_object();

  /// Object member access; `at` throws std::out_of_range if missing.
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  Json& operator[](const std::string& key);  ///< makes an object if null

  /// Array element access; throws std::out_of_range.
  const Json& at(std::size_t index) const;
  std::size_t size() const;  ///< array/object element count; 0 otherwise

  /// Serialize. indent < 0 -> compact single line; otherwise pretty-print
  /// with the given indent width. Writes through JsonWriter.
  std::string dump(int indent = -1) const;

  /// Deepest container nesting parse() accepts. Deeper input (adversarial
  /// "[[[[..." bombs) is rejected with std::invalid_argument instead of
  /// recursing toward a stack overflow.
  static constexpr std::size_t kMaxParseDepth = 256;

  /// Strict parser; throws std::invalid_argument with offset on error.
  /// Rejects trailing garbage after the document and nesting deeper than
  /// kMaxParseDepth.
  static Json parse(const std::string& text);

  bool operator==(const Json& other) const;

 private:
  friend class JsonWriter;
  void dump_to(JsonWriter& writer) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Streaming serializer: appends a document to `out` value by value, in
/// exactly the layout Json::dump() produces — dump() is written through it —
/// without building a Json tree. Members are written in the order given, so
/// a caller that must match dump() byte for byte emits keys in sorted order,
/// as Json::Object holds them. The caller keeps the calls well formed (one
/// value after each key, containers closed in order).
class JsonWriter {
 public:
  /// indent < 0 -> compact single line; otherwise pretty-print with the
  /// given indent width.
  JsonWriter(std::string& out, int indent) : out_(out), indent_(indent) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  /// Object member name; the next value written is the member's value.
  void key(std::string_view name);

  void string(std::string_view text);
  void number(double value);
  void boolean(bool value);
  void null();
  /// A whole Json subtree at the current position.
  void value(const Json& json) { json.dump_to(*this); }

 private:
  /// Comma and line break before an element; nothing after a key or at the
  /// top level.
  void separate();
  void open(char bracket);
  void close(char bracket);
  void newline_indent();

  std::string& out_;
  int indent_;
  int depth_ = 0;
  bool first_ = true;  ///< the innermost open container has no element yet
  bool after_key_ = false;
};

}  // namespace hadas::util
