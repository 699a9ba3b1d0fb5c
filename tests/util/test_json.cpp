#include "util/json.hpp"

#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

namespace resilience::util {
namespace {

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_EQ(Json::parse("123").as_int(), 123);
  EXPECT_TRUE(Json::parse("123").is_int());
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e3").as_double(), -2500.0);
  EXPECT_TRUE(Json::parse("1.0").is_double());
  EXPECT_EQ(Json::parse("\"abc\"").as_string(), "abc");
}

TEST(Json, IntAndDoubleInterconvert) {
  EXPECT_DOUBLE_EQ(Json(7).as_double(), 7.0);
  EXPECT_EQ(Json(7.9).as_int(), 7);
}

TEST(Json, ObjectsAndArrays) {
  JsonObject obj;
  obj["list"] = Json(JsonArray{Json(1), Json(2), Json(3)});
  obj["name"] = Json("x");
  const Json value(std::move(obj));
  const std::string compact = value.dump();
  EXPECT_EQ(compact, R"({"list":[1,2,3],"name":"x"})");
  const Json parsed = Json::parse(compact);
  EXPECT_EQ(parsed.at("name").as_string(), "x");
  EXPECT_EQ(parsed.at("list").as_array().size(), 3u);
  EXPECT_EQ(parsed.at("list").as_array()[2].as_int(), 3);
}

TEST(Json, PrettyPrintParsesBack) {
  JsonObject obj;
  obj["a"] = Json(JsonArray{Json(true), Json(nullptr)});
  obj["b"] = Json(JsonObject{{"nested", Json(1)}});
  const Json value(std::move(obj));
  const std::string pretty = value.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  const Json parsed = Json::parse(pretty);
  EXPECT_EQ(parsed.at("b").at("nested").as_int(), 1);
  EXPECT_TRUE(parsed.at("a").as_array()[1].is_null());
}

TEST(Json, StringEscapes) {
  const std::string nasty = "quote\" slash\\ newline\n tab\t";
  const std::string dumped = Json(nasty).dump();
  EXPECT_EQ(Json::parse(dumped).as_string(), nasty);
}

TEST(Json, UnicodeEscapeDecodes) {
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xc3\xa9");   // e-acute
  EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xe2\x82\xac");  // euro
}

TEST(Json, ControlCharactersEscapedOnDump) {
  const std::string with_control = std::string("a") + '\x01' + "b";
  EXPECT_EQ(Json(with_control).dump(), "\"a\\u0001b\"");
  EXPECT_EQ(Json::parse(Json(with_control).dump()).as_string(), with_control);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json(JsonArray{}).dump(), "[]");
  EXPECT_EQ(Json(JsonObject{}).dump(), "{}");
  EXPECT_TRUE(Json::parse("[]").as_array().empty());
  EXPECT_TRUE(Json::parse("{}").as_object().empty());
  EXPECT_TRUE(Json::parse(" [ ] ").as_array().empty());
}

TEST(Json, WhitespaceTolerated) {
  const Json parsed = Json::parse("  {\n \"k\" :\t[ 1 , 2 ]\n} ");
  EXPECT_EQ(parsed.at("k").as_array()[1].as_int(), 2);
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,"), JsonError);
  EXPECT_THROW(Json::parse("[1] junk"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("truish"), JsonError);
  EXPECT_THROW(Json::parse("{1: 2}"), JsonError);
  EXPECT_THROW(Json::parse("-"), JsonError);
  EXPECT_THROW(Json::parse("\"\\u12g4\""), JsonError);
}

TEST(Json, TypeMismatchesThrow) {
  const Json number(5);
  EXPECT_THROW((void)number.as_string(), JsonError);
  EXPECT_THROW((void)number.as_array(), JsonError);
  EXPECT_THROW((void)number.at("key"), JsonError);
  const Json obj = Json::parse("{\"a\": 1}");
  EXPECT_THROW((void)obj.at("missing"), JsonError);
}

TEST(Json, LargeIntegersSurviveExactly) {
  const std::int64_t big = 9007199254740993;  // not representable in double
  EXPECT_EQ(Json::parse(Json(big).dump()).as_int(), big);
}

// An integer literal past int64 parses as a double; as_int() used to cast
// it unchecked (undefined behaviour for 1e20).
TEST(Json, OutOfRangeIntegersThrow) {
  EXPECT_THROW((void)Json::parse("99999999999999999999").as_int(), JsonError);
  EXPECT_THROW((void)Json::parse("-99999999999999999999").as_int(), JsonError);
  EXPECT_THROW((void)Json::parse("1e308").as_int(), JsonError);
  EXPECT_THROW((void)Json::parse("9223372036854775808.0").as_int(), JsonError);
  EXPECT_THROW((void)Json(std::nan("")).as_int(), JsonError);
  EXPECT_THROW((void)Json(-HUGE_VAL).as_int(), JsonError);
  EXPECT_EQ(Json::parse("-9223372036854775808.0").as_int(), INT64_MIN);
  EXPECT_EQ(Json::parse("4294967296").as_int(), std::int64_t{1} << 32);
  EXPECT_EQ(Json::parse("1e3").as_int(), 1000);
}

// The parser recurses once per open array/object; deep nesting used to
// overflow the stack. It now stops at Json::kMaxDepth levels.
TEST(Json, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  EXPECT_THROW(Json::parse(std::string(1'000'000, '[')), JsonError);
  std::string deep_objects;
  for (int i = 0; i < 1'000'000; ++i) deep_objects += "{\"k\":";
  EXPECT_THROW(Json::parse(deep_objects), JsonError);

  const auto nested = [](int levels) {
    return std::string(static_cast<std::size_t>(levels), '[') +
           std::string(static_cast<std::size_t>(levels), ']');
  };
  EXPECT_NO_THROW(Json::parse(nested(Json::kMaxDepth)));
  EXPECT_THROW(Json::parse(nested(Json::kMaxDepth + 1)), JsonError);
}

TEST(Json, DoublePrecisionSurvives) {
  const double precise = 0.1234567890123456789;
  const Json parsed = Json::parse(Json(precise).dump());
  EXPECT_DOUBLE_EQ(parsed.as_double(), precise);
}

}  // namespace
}  // namespace resilience::util
