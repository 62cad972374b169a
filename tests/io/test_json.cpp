#include "io/json.h"

#include <gtest/gtest.h>

namespace tfc::io {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(parse_json(R"("hi")").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const auto doc = parse_json(R"({"a": [1, 2, {"b": null}], "c": {"d": "e"}})");
  EXPECT_EQ(doc.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("a").as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(doc.at("a").as_array()[2].at("b").is_null());
  EXPECT_EQ(doc.at("c").at("d").as_string(), "e");
}

TEST(Json, EscapesSurviveRoundTrip) {
  JsonValue obj = JsonValue::make_object();
  obj.set("text", JsonValue::make_string("line\n\ttab \"quoted\" back\\slash"));
  obj.set("unicode", JsonValue::make_string("\xC3\xA9"));  // é as UTF-8
  const auto parsed = parse_json(obj.dump());
  EXPECT_EQ(parsed.at("text").as_string(), "line\n\ttab \"quoted\" back\\slash");
  EXPECT_EQ(parsed.at("unicode").as_string(), "\xC3\xA9");
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(parse_json("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_json("\"\\u00e9\"").as_string(), "\xC3\xA9");      // é
  EXPECT_EQ(parse_json("\"\\u20AC\"").as_string(), "\xE2\x82\xAC");  // €
  EXPECT_THROW(parse_json("\"\\u12g4\""), JsonParseError);
  EXPECT_THROW(parse_json("\"\\u12\""), JsonParseError);
}

TEST(Json, NumbersDumpCompactly) {
  EXPECT_EQ(parse_json("3").dump(), "3");
  EXPECT_EQ(parse_json("-17").dump(), "-17");
  EXPECT_EQ(parse_json("0.5").dump(), "0.5");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  JsonValue obj = JsonValue::make_object();
  obj.set("z", JsonValue::make_number(1));
  obj.set("a", JsonValue::make_number(2));
  obj.set("m", JsonValue::make_number(3));
  EXPECT_EQ(obj.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(Json, ParseErrorsCarryOffsets) {
  try {
    parse_json(R"({"a": })");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset(), 6u);
  }
  try {
    parse_json("[1, 2");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_GE(e.offset(), 5u);
  }
}

TEST(Json, RejectsGarbage) {
  EXPECT_THROW(parse_json(""), JsonParseError);
  EXPECT_THROW(parse_json("nul"), JsonParseError);
  EXPECT_THROW(parse_json("{'a': 1}"), JsonParseError);       // single quotes
  EXPECT_THROW(parse_json("{\"a\": 1,}"), JsonParseError);    // trailing comma
  EXPECT_THROW(parse_json("[1] []"), JsonParseError);         // trailing tokens
  EXPECT_THROW(parse_json("\"unterminated"), JsonParseError);
  EXPECT_THROW(parse_json("1e999999"), JsonParseError);       // overflow
}

TEST(Json, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(parse_json(deep), JsonParseError);
}

TEST(Json, TypeMismatchThrows) {
  const auto doc = parse_json(R"({"a": 1})");
  EXPECT_THROW((void)doc.at("a").as_string(), std::runtime_error);
  EXPECT_THROW((void)doc.at("missing"), std::runtime_error);
  EXPECT_EQ(doc.get("missing"), nullptr);
}

TEST(Json, DefaultedAccessors) {
  const auto doc = parse_json(R"({"n": 4, "s": "x", "b": true})");
  EXPECT_DOUBLE_EQ(doc.number_or("n", 9.0), 4.0);
  EXPECT_DOUBLE_EQ(doc.number_or("absent", 9.0), 9.0);
  EXPECT_EQ(doc.string_or("s", "y"), "x");
  EXPECT_EQ(doc.string_or("absent", "y"), "y");
  EXPECT_TRUE(doc.bool_or("b", false));
  EXPECT_FALSE(doc.bool_or("absent", false));
}

/// Absent or null is the fallback; any other wrong type is an error naming
/// the key, never a silent default.
TEST(Json, DefaultedAccessorsRefuseWrongTypes) {
  const auto doc = parse_json(R"({"n": "90", "s": 5, "b": "yes", "z": null})");
  EXPECT_DOUBLE_EQ(doc.number_or("z", 9.0), 9.0);
  EXPECT_EQ(doc.string_or("z", "y"), "y");
  EXPECT_TRUE(doc.bool_or("z", true));
  const auto message = [](const auto& read) {
    try {
      read();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([&] { (void)doc.number_or("n", 0.0); }),
            "'n' must be a number, got string");
  EXPECT_EQ(message([&] { (void)doc.string_or("s", ""); }),
            "'s' must be a string, got number");
  EXPECT_EQ(message([&] { (void)doc.bool_or("b", false); }),
            "'b' must be a boolean, got string");
}

}  // namespace
}  // namespace tfc::io
