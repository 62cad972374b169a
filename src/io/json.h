/// \file json.h
/// \brief Minimal recursive-descent JSON parser and value model.
///
/// The service protocol (tfc::svc) speaks newline-delimited JSON, and the
/// design-result reader needs to re-ingest the documents design_json.cpp
/// emits — both want a small, dependency-free parser with precise error
/// messages rather than a full JSON library. Numbers are stored as double
/// (adequate for every document this project produces), object key order is
/// preserved for deterministic re-serialization, and parse errors throw
/// JsonParseError naming the byte offset and what was expected.
#pragma once

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tfc::io {

/// Malformed input. `what()` includes the byte offset of the failure.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, std::size_t offset)
      : std::runtime_error("json parse error at offset " + std::to_string(offset) +
                           ": " + message),
        offset_(offset) {}

  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// One JSON value (null / bool / number / string / array / object).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items = {});
  static JsonValue make_object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::runtime_error on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;

  /// Object access. `get` returns nullptr when the key is absent.
  const JsonValue* get(const std::string& key) const;
  /// Required-key lookup; throws std::runtime_error naming the key.
  const JsonValue& at(const std::string& key) const;
  bool has(const std::string& key) const { return get(key) != nullptr; }

  /// Insertion-ordered key/value pairs of an object.
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Mutators (arrays/objects only; throw on type mismatch).
  void push_back(JsonValue v);
  void set(const std::string& key, JsonValue v);

  /// Typed lookups with defaults (object values only): \p fallback when the
  /// key is absent or null; any other wrong type throws
  /// std::invalid_argument naming the key.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, const std::string& fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;

  /// Compact single-line serialization (stable member order = insertion
  /// order; doubles with 17 significant digits round-trip exactly).
  std::string dump() const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parse exactly one JSON document; trailing non-whitespace is an error.
/// Throws JsonParseError on malformed input.
JsonValue parse_json(const std::string& text);

/// Escape a string for embedding in a JSON document (no surrounding quotes).
std::string json_escape(const std::string& s);

}  // namespace tfc::io
