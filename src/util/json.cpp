#include "util/json.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace hadas::util {

namespace {
[[noreturn]] void type_error(const char* want, Json::Type got) {
  throw std::logic_error(std::string("Json: expected ") + want + ", have type " +
                         std::to_string(static_cast<int>(got)));
}
}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

std::size_t Json::as_index() const {
  const double v = as_number();
  if (v < 0.0 || std::floor(v) != v)
    throw std::logic_error("Json: number is not a non-negative integer");
  return static_cast<std::size_t>(v);
}

int Json::as_int() const {
  const double v = as_number();
  if (std::floor(v) != v) throw std::logic_error("Json: number is not integral");
  return static_cast<int>(v);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const Json::Object& Json::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

Json::Array& Json::make_array() {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

Json::Object& Json::make_object() {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw std::out_of_range("Json: missing key '" + key + "'");
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return type_ == Type::kObject && object_.count(key) > 0;
}

Json& Json::operator[](const std::string& key) { return make_object()[key]; }

const Json& Json::at(std::size_t index) const {
  const auto& arr = as_array();
  if (index >= arr.size()) throw std::out_of_range("Json: index out of range");
  return arr[index];
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  return 0;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: return object_ == other.object_;
  }
  return false;
}

// ---------- serialization ----------

namespace {
/// Append `text` as a quoted JSON string literal, copying each run of bytes
/// that need no escape in one append.
void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  std::size_t run = 0;  // start of the pending run of unescaped bytes
  for (std::size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(text.data() + run, text.size() - run);
  out += '"';
}
}  // namespace

void JsonWriter::newline_indent() {
  if (indent_ < 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_ * depth_), ' ');
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (depth_ == 0) return;
  if (!first_) out_ += ',';
  first_ = false;
  newline_indent();
}

void JsonWriter::open(char bracket) {
  separate();
  out_ += bracket;
  ++depth_;
  first_ = true;
}

void JsonWriter::close(char bracket) {
  --depth_;
  if (!first_) newline_indent();  // an empty container stays "[]" / "{}"
  out_ += bracket;
  first_ = false;
}

void JsonWriter::key(std::string_view name) {
  separate();
  append_json_string(out_, name);
  out_ += indent_ < 0 ? ":" : ": ";
  after_key_ = true;
}

void JsonWriter::string(std::string_view text) {
  separate();
  append_json_string(out_, text);
}

void JsonWriter::number(double value) {
  if (!std::isfinite(value)) throw std::logic_error("Json: non-finite number");
  separate();
  char buf[32];
  if (std::floor(value) == value && std::fabs(value) < 1e15)
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  else
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
}

void JsonWriter::boolean(bool value) {
  separate();
  out_ += value ? "true" : "false";
}

void JsonWriter::null() {
  separate();
  out_ += "null";
}

void Json::dump_to(JsonWriter& writer) const {
  switch (type_) {
    case Type::kNull: writer.null(); return;
    case Type::kBool: writer.boolean(bool_); return;
    case Type::kNumber: writer.number(number_); return;
    case Type::kString: writer.string(string_); return;
    case Type::kArray:
      writer.begin_array();
      for (const Json& element : array_) element.dump_to(writer);
      writer.end_array();
      return;
    case Type::kObject:
      writer.begin_object();
      for (const auto& [key, value] : object_) {
        writer.key(key);
        value.dump_to(writer);
      }
      writer.end_object();
      return;
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  JsonWriter writer(out, indent);
  writer.value(*this);
  return out;
}

// ---------- parsing ----------

namespace {
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::invalid_argument("Json parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_whitespace();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Json(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Json(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Json();
    }
    return parse_number();
  }

  /// RAII nesting guard shared by objects and arrays.
  struct DepthGuard {
    explicit DepthGuard(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > Json::kMaxParseDepth)
        parser_.fail("nesting deeper than " +
                     std::to_string(Json::kMaxParseDepth) + " levels");
    }
    ~DepthGuard() { --parser_.depth_; }
    Parser& parser_;
  };

  Json parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    Json::Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object[std::move(key)] = parse_value();
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(object));
    }
  }

  Json parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    Json::Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(array));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("bad hex digit");
            }
            // Basic-multilingual-plane only; encode as UTF-8.
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
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
      fail("bad number");
    const std::string token = text_.substr(start, pos_ - start);
    // strtod, not std::stod: stod throws out_of_range on ERANGE, which
    // strtod also sets for *underflow* — and denormals (which %.17g emits
    // and checkpoints must round-trip bit-exactly) are legitimate. Only
    // genuine overflow to ±HUGE_VAL is a malformed number.
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("bad number");
    if (errno == ERANGE && (value == HUGE_VAL || value == -HUGE_VAL))
      fail("bad number");
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};
}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace hadas::util
