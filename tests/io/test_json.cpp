// The serve transport's JSON reader: numbers parse exactly as
// std::from_chars reads them (locale-free, bitwise), and strings keep
// their bytes across unescaped runs and escapes alike.
#include <gtest/gtest.h>

#include <charconv>
#include <clocale>
#include <cmath>
#include <cstring>
#include <string>

#include "stackroute/io/json.h"

namespace stackroute::io {
namespace {

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

constexpr const char* kNumbers[] = {
    "0",
    "-0",
    "1",
    "-1.5",
    "0.1",
    "0.10000000000000001",
    "3.1415926535897931",
    "12345.678901234567",
    "1e22",
    "1E+5",
    "-2.5e-3",
    "4.9406564584124654e-324",  // smallest subnormal
    "2.2250738585072009e-308",  // largest subnormal
    "2.2250738585072014e-308",  // smallest normal
    "1.7976931348623157e308",   // largest finite
    "9007199254740993",         // 2^53 + 1: rounds to even
    "123456789012345678901234567890",
    "0.000001",
    "1e-7",
};

TEST(JsonNumber, ParsesBitwiseAsFromChars) {
  for (const char* text : kNumbers) {
    double expected = 0.0;
    const auto [end, ec] =
        std::from_chars(text, text + std::strlen(text), expected);
    ASSERT_EQ(ec, std::errc()) << text;
    ASSERT_EQ(end, text + std::strlen(text)) << text;
    const double got = JsonValue::parse(text).as_number();
    EXPECT_TRUE(bit_equal(got, expected)) << text << ": " << got;
    // Inside a request object too, where the token ends at a delimiter.
    const JsonValue obj =
        JsonValue::parse(std::string("{\"demand\":") + text + "}");
    EXPECT_TRUE(bit_equal(obj.find("demand")->as_number(), expected))
        << text;
  }
  EXPECT_TRUE(std::signbit(JsonValue::parse("-0").as_number()));
}

TEST(JsonNumber, WriterReadsBackBitwise) {
  for (const char* text : kNumbers) {
    const double v = JsonValue::parse(text).as_number();
    EXPECT_TRUE(bit_equal(JsonValue::parse(json_number(v)).as_number(), v))
        << text;
  }
  EXPECT_EQ(json_number(0.1), "0.10000000000000001");
  EXPECT_EQ(json_number(-0.0), "-0");
  EXPECT_EQ(json_number(1e22), "1e+22");
}

TEST(JsonNumber, IgnoresTheCLocale) {
  // strtod and printf follow LC_NUMERIC; from_chars and to_chars do not.
  // Under a comma-decimal C locale (when the host has one) "1.5" must
  // still read as 1.5 and 1.5 must still print with a '.'.
  const std::string saved = std::setlocale(LC_NUMERIC, nullptr);
  bool switched = false;
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8"}) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr) {
      switched = true;
      break;
    }
  }
  const double v = JsonValue::parse("{\"demand\":1.5}").find("demand")->as_number();
  const std::string printed = json_number(2.25);
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_EQ(v, 1.5);
  EXPECT_EQ(printed, "2.25");
  if (!switched) GTEST_SKIP() << "no comma-decimal locale installed";
}

TEST(JsonNumber, OutOfRangeIsAnError) {
  // Out of double's range, underflow included: a parse error at the
  // token's first byte, never inf or 0.
  for (const char* text : {"1e400", "-1e400", "1e-400"}) {
    try {
      JsonValue::parse(std::string("[1, ") + text + "]");
      ADD_FAILURE() << "accepted " << text;
    } catch (const JsonParseError& e) {
      EXPECT_EQ(e.message, "number out of range") << text;
      EXPECT_EQ(e.offset, 4u) << text;
    }
  }
}

TEST(JsonString, RunsAndEscapesKeepEveryByte) {
  const std::string long_run(5000, 'x');
  const JsonValue v = JsonValue::parse(
      "\"" + long_run + "\\n" + long_run + "\\u00e9\\\"end\\\\\"");
  EXPECT_EQ(v.as_string(),
            long_run + "\n" + long_run + "\xc3\xa9\"end\\");
  EXPECT_EQ(JsonValue::parse("\"\"").as_string(), "");
  EXPECT_EQ(JsonValue::parse("\"a\\tb\"").as_string(), "a\tb");
}

TEST(JsonString, ErrorOffsetsPointAtTheBadByte) {
  const auto offset_of = [](const std::string& text) {
    try {
      JsonValue::parse(text);
    } catch (const JsonParseError& e) {
      return e.offset;
    }
    return std::string::npos;
  };
  EXPECT_EQ(offset_of("\"abc\ndef\""), 4u);  // raw control byte
  EXPECT_EQ(offset_of("\"abc"), 4u);         // unterminated
  EXPECT_EQ(offset_of("\"ab\\q\""), 4u);     // invalid escape
}

}  // namespace
}  // namespace stackroute::io
