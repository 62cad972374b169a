#include "io/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace tfc::io {

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

namespace {

const char* type_name(JsonValue::Type type) {
  static const char* names[] = {"null", "bool", "number", "string", "array", "object"};
  return names[static_cast<int>(type)];
}

[[noreturn]] void type_error(const char* want, JsonValue::Type got) {
  throw std::runtime_error(std::string("json: expected ") + want + ", got " +
                           type_name(got));
}

}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const JsonValue* JsonValue::get(const std::string& key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = get(key);
  if (!v) throw std::runtime_error("json: missing key '" + key + "'");
  return *v;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

void JsonValue::push_back(JsonValue v) {
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(v));
}

void JsonValue::set(const std::string& key, JsonValue v) {
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object_.emplace_back(key, std::move(v));
}

namespace {

/// The member \p key of \p obj when it holds a \p want value; nullptr when it
/// is absent or null. Throws std::invalid_argument for any other type.
const JsonValue* typed_member(const JsonValue& obj, const std::string& key,
                              JsonValue::Type want, const char* want_name) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr || v->is_null()) return nullptr;
  if (v->type() != want) {
    throw std::invalid_argument("'" + key + "' must be a " + want_name + ", got " +
                                type_name(v->type()));
  }
  return v;
}

}  // namespace

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = typed_member(*this, key, Type::kNumber, "number");
  return v != nullptr ? v->number_ : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = typed_member(*this, key, Type::kString, "string");
  return v != nullptr ? v->string_ : fallback;
}

bool JsonValue::bool_or(const std::string& key, bool fallback) const {
  const JsonValue* v = typed_member(*this, key, Type::kBool, "boolean");
  return v != nullptr ? v->bool_ : fallback;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += char(c);
        }
    }
  }
  return out;
}

namespace {

std::string format_number(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";  // JSON has no NaN/Inf
  // Integral values print without an exponent or trailing ".0" so ids and
  // counts stay readable; everything else round-trips via %.17g.
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

void dump_to(const JsonValue& v, std::string& out);

void dump_to(const JsonValue& v, std::string& out) {
  switch (v.type()) {
    case JsonValue::Type::kNull: out += "null"; break;
    case JsonValue::Type::kBool: out += v.as_bool() ? "true" : "false"; break;
    case JsonValue::Type::kNumber: out += format_number(v.as_number()); break;
    case JsonValue::Type::kString:
      out += '"';
      out += json_escape(v.as_string());
      out += '"';
      break;
    case JsonValue::Type::kArray: {
      out += '[';
      bool first = true;
      for (const auto& item : v.as_array()) {
        if (!first) out += ',';
        first = false;
        dump_to(item, out);
      }
      out += ']';
      break;
    }
    case JsonValue::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, item] : v.members()) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += json_escape(k);
        out += "\":";
        dump_to(item, out);
      }
      out += '}';
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError(message, pos_);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r')) {
      ++pos_;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  JsonValue parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::make_string(parse_string());
      case 't': parse_literal("true"); return JsonValue::make_bool(true);
      case 'f': parse_literal("false"); return JsonValue::make_bool(false);
      case 'n': parse_literal("null"); return JsonValue::make_null();
      default: return parse_number();
    }
  }

  void parse_literal(const char* lit) {
    for (const char* p = lit; *p; ++p) {
      if (eof() || peek() != *p) fail(std::string("invalid literal (expected '") + lit + "')");
      ++pos_;
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid number");
    while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit expected after decimal point");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digit expected in exponent");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    double d = 0.0;
    const auto res = std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (res.ec != std::errc()) fail("number out of range");
    return JsonValue::make_number(d);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            if (eof()) fail("truncated \\u escape");
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as-is; the protocol never emits them).
          if (code < 0x80) {
            out += char(code);
          } else if (code < 0x800) {
            out += char(0xC0 | (code >> 6));
            out += char(0x80 | (code & 0x3F));
          } else {
            out += char(0xE0 | (code >> 12));
            out += char(0x80 | ((code >> 6) & 0x3F));
            out += char(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape sequence");
      }
    }
  }

  JsonValue parse_array(std::size_t depth) {
    expect('[');
    JsonValue arr = JsonValue::make_array();
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      skip_ws();
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  JsonValue parse_object(std::size_t depth) {
    expect('{');
    JsonValue obj = JsonValue::make_object();
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      obj.set(key, parse_value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string JsonValue::dump() const {
  std::string out;
  dump_to(*this, out);
  return out;
}

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace tfc::io
