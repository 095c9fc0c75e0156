#include "util/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "util/expect.hpp"

namespace madpipe::json {
namespace {

TEST(Json, EmptyObject) {
  Writer w;
  w.begin_object();
  w.end_object();
  EXPECT_EQ(w.str(), "{}");
}

TEST(Json, FlatObject) {
  Writer w;
  w.begin_object();
  w.key("a");
  w.value(1);
  w.key("b");
  w.value("two");
  w.key("c");
  w.value(true);
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":"two","c":true})");
}

TEST(Json, NestedStructures) {
  Writer w;
  w.begin_object();
  w.key("list");
  w.begin_array();
  w.value(1);
  w.begin_object();
  w.key("x");
  w.null();
  w.end_object();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"list":[1,{"x":null}]})");
}

TEST(Json, EscapesSpecials) {
  Writer w;
  w.begin_object();
  w.key("s");
  w.value("a\"b\\c\nd\te");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(Json, EscapesControlCharacters) {
  Writer w;
  w.begin_array();
  w.value(std::string("\x01"));
  w.end_array();
  EXPECT_EQ(w.str(), "[\"\\u0001\"]");
}

TEST(Json, DoubleFormatting) {
  Writer w;
  w.begin_array();
  w.value(0.5);
  w.value(1e300);
  w.end_array();
  EXPECT_EQ(w.str(), "[0.5,1e+300]");
}

TEST(Json, NonFiniteBecomesNull) {
  Writer w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(w.str(), "[null]");
}

TEST(Json, ArrayCommas) {
  Writer w;
  w.begin_array();
  w.value(1);
  w.value(2);
  w.value(3);
  w.end_array();
  EXPECT_EQ(w.str(), "[1,2,3]");
}

TEST(Json, UnterminatedScopeThrows) {
  Writer w;
  w.begin_object();
  EXPECT_THROW(w.str(), ContractViolation);
}

TEST(Json, MismatchedEndThrows) {
  Writer w;
  w.begin_object();
  EXPECT_THROW(w.end_array(), ContractViolation);
}

TEST(Json, KeyOutsideObjectThrows) {
  Writer w;
  w.begin_array();
  EXPECT_THROW(w.key("nope"), ContractViolation);
}

// --- parser (added for the serve protocol) ---

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse("null").value.is_null());
  EXPECT_EQ(parse("true").value.as_bool(), true);
  EXPECT_EQ(parse("false").value.as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("-12.5e2").value.as_number(), -1250.0);
  EXPECT_EQ(parse("\"hi\"").value.as_string(), "hi");
}

TEST(JsonParse, StructuresAndLookups) {
  const ParseResult result =
      parse(R"({"a": 1, "b": [true, null, "x"], "c": {"d": 2}})");
  ASSERT_TRUE(result.ok()) << result.error;
  const Value& root = result.value;
  EXPECT_DOUBLE_EQ(root.number_or("a", 0.0), 1.0);
  const Value* b = root.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->items().size(), 3u);
  EXPECT_EQ(b->items()[2].as_string(), "x");
  const Value* c = root.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->number_or("d", 0.0), 2.0);
  EXPECT_EQ(root.find("missing"), nullptr);
  EXPECT_EQ(root.string_or("missing", "dflt"), "dflt");
}

TEST(JsonParse, ObjectsPreserveInsertionOrder) {
  const ParseResult result = parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(result.ok());
  const auto& members = result.value.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(JsonParse, StringEscapes) {
  const ParseResult result = parse(R"("a\"b\\c\nd\u00e9")");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.value.as_string(), "a\"b\\c\nd\xc3\xa9");
}

TEST(JsonParse, WriterParserRoundTrip) {
  Writer w;
  w.begin_object();
  w.key("period");
  w.value(0.16630977777777778);
  w.key("name");
  w.value("a \"quoted\" name");
  w.key("flags");
  w.begin_array();
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  const ParseResult result = parse(w.str());
  ASSERT_TRUE(result.ok()) << result.error;
  // Doubles survive exactly: the writer emits shortest-round-trip literals.
  EXPECT_EQ(result.value.number_or("period", 0.0), 0.16630977777777778);
  EXPECT_EQ(result.value.string_or("name", ""), "a \"quoted\" name");
}

TEST(JsonParse, RejectsMalformedDocuments) {
  const char* kBad[] = {
      "",            "{",           "[1,]",        "{\"a\":}",
      "{\"a\" 1}",   "{'a': 1}",    "01",          "1.",
      "1e",          "nul",         "\"unterminated", "\"bad\\q\"",
      "{\"a\":1,}",  "[1 2]",       "{\"a\":1}{",  "\"\\ud800\"",
  };
  for (const char* text : kBad) {
    EXPECT_FALSE(parse(text).ok()) << "accepted: " << text;
  }
}

TEST(JsonParse, RejectsDuplicateKeys) {
  const ParseResult result = parse(R"({"a": 1, "a": 2})");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("duplicate key"), std::string::npos);
}

TEST(JsonParse, RejectsDuplicateKeysInNestedScopes) {
  EXPECT_FALSE(parse(R"({"outer": {"a": 1, "a": 2}})").ok());
  EXPECT_FALSE(parse(R"([{"k": true, "k": true}])").ok());
  EXPECT_FALSE(parse(R"({"a": [{"b": 1}, {"b": 1, "b": 2}]})").ok());
  // The same key at different depths is not a duplicate.
  EXPECT_TRUE(parse(R"({"a": {"a": 1}, "b": {"a": 2}})").ok());
}

TEST(JsonParse, ControlCharactersRoundTripThroughWriterEscapes) {
  std::string raw;
  for (int c = 0; c < 0x20; ++c) raw.push_back(static_cast<char>(c));
  raw += "tail";
  Writer w;
  w.begin_object();
  w.key("s");
  w.value(raw);
  w.end_object();
  // The serialized form never contains a raw control byte (they all become
  // \uXXXX or the short escapes), so the strict parser accepts it...
  for (const char c : w.str()) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  const ParseResult result = parse(w.str());
  ASSERT_TRUE(result.ok()) << result.error;
  // ...and the decoded string is byte-identical, embedded NUL included.
  EXPECT_EQ(result.value.string_or("s", ""), raw);
}

TEST(JsonParse, RejectsRawControlCharacterInString) {
  const std::string text = std::string("\"a") + '\x01' + "b\"";
  const ParseResult result = parse(text);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("control"), std::string::npos);
}

TEST(JsonParse, RejectsTrailingGarbage) {
  const ParseResult result = parse("{} x");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("trailing"), std::string::npos);
}

TEST(JsonParse, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  const ParseResult result = parse(deep);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("nesting"), std::string::npos);
}

/// The bits strtod reads from `text`; the parser must reproduce them.
std::uint64_t strtod_bits(const std::string& text) {
  return std::bit_cast<std::uint64_t>(std::strtod(text.c_str(), nullptr));
}

TEST(JsonParse, NumbersMatchStrtod) {
  // Every finite strtod result is read bit for bit: zeros and their signs,
  // subnormals, halfway cases, the extremes, long mantissas, and values
  // that underflow to zero.
  const char* const kFinite[] = {
      "0", "-0", "0.0", "-0.0", "1", "-1", "0.1", "0.5", "1e0", "1E5",
      "1e+5", "1e-5", "-12.5e2", "123456789", "9007199254740993",
      "12345678901234567890123456789", "0.1000000000000000055511151231257827",
      "3.141592653589793238462643383279", "2.2250738585072014e-308",
      "2.2250738585072011e-308", "2.225073858507201e-308", "4.9e-324",
      "5e-324", "-5e-324", "2.4703282292062328e-324",
      "2.4703282292062327e-324", "2e-324", "1e-320", "1e-400", "-1e-400",
      "0.0000000000000000000000000000001e-300", "1.7976931348623157e308",
      "1.7976931348623158e308", "179769313486231570000000000000000000000"
                                "000000000000000000000000000000000000000"
                                "000000000000000000000000000000000000000"
                                "000000000000000000000000000000000000000"
                                "000000000000000000000000000000000000000"
                                "000000000000000000000000000000000000000"
                                "000000000000000000000000000000000000000"
                                "00000000000000000000000",
      "1e22", "1e23", "8.98846567431158e307", "1.5e-10", "123.456e-7"};
  for (const char* text : kFinite) {
    const ParseResult result = parse(text);
    ASSERT_TRUE(result.ok()) << text << ": " << result.error;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.value.as_number()),
              strtod_bits(text))
        << text;
  }
  EXPECT_EQ(parse("1e-400").value.as_number(), 0.0);

  // Values strtod overflows to infinity are errors, not infinities.
  for (const char* text : {"1e400", "-1e400", "1.7976931348623159e308",
                           "2e308", "1e99999"}) {
    const ParseResult result = parse(text);
    EXPECT_FALSE(result.ok()) << text;
    EXPECT_NE(result.error.find("invalid number"), std::string::npos) << text;
  }

  // A sweep of bit patterns across the whole exponent range, printed both
  // exactly (%.17g) and rounded (%.6e) so the parser must round too.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 4000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double v = std::bit_cast<double>(state);
    if (!std::isfinite(v)) continue;
    for (const char* format : {"%.17g", "%.6e"}) {
      char text[64];
      std::snprintf(text, sizeof(text), format, v);
      const ParseResult result = parse(text);
      ASSERT_TRUE(result.ok()) << text << ": " << result.error;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result.value.as_number()),
                strtod_bits(text))
          << text;
    }
  }
}

TEST(JsonParse, WrongAccessorThrows) {
  const ParseResult result = parse("42");
  ASSERT_TRUE(result.ok());
  EXPECT_THROW(result.value.as_string(), ContractViolation);
  EXPECT_THROW(result.value.items(), ContractViolation);
}

/// The writer's number rule spelled with printf and strtod: the first of
/// %.15g, %.16g, %.17g that reads back exactly.
std::string printf_reference(double v) {
  char buf[48];
  for (const int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::string written(double v) {
  Writer w;
  w.begin_array();
  w.value(v);
  w.end_array();
  const std::string text = w.str();
  return text.substr(1, text.size() - 2);
}

TEST(JsonWriter, DoubleBytesMatchPrintfReference) {
  std::vector<double> values = {
      0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
      std::numeric_limits<double>::min() / 2,
      std::numeric_limits<double>::min(), 1e-5, 1e-4, 9.99999e-5, 1e15,
      1e16, 1e17, 1e21, 1e22, 1e23, std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      // Precision boundaries: 15, 16 and 17 significant digits.
      0.1, 0.3, 1.0 / 3.0, 2.0 / 3.0, 0.1 + 0.2, 9007199254740992.0,
      9007199254740991.0, 123456789012345.0, 1234567890123456.0,
      12345678901234567.0, 999999999999999.0, 9999999999999998.0,
      0.999999999999999, 0.9999999999999999, 1.0 - 0x1p-53, 1.0 + 0x1p-52,
      4.35, 0.01482, 67.47638326585695, 16.869095816464238};
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
  };
  for (int i = 0; i < 20000; ++i) {
    // Random bit patterns over the whole exponent range.
    values.push_back(std::bit_cast<double>(next()));
    // Dyadic values, as power-of-two unit scaling produces them.
    const std::uint64_t r = next();
    values.push_back(std::ldexp(static_cast<double>(r >> 11),
                                static_cast<int>(r % 160) - 120));
    // Millisecond-scale times and their products, as plans carry them.
    const double millis = static_cast<double>(next() % 1000000) * 1e-3;
    values.push_back(millis);
    values.push_back(millis * 1e-3 * (1.0 + 0.37 * static_cast<double>(i % 9)));
    values.push_back(1.0 / (millis + 1e-3));
  }
  int compared = 0;
  for (const double v : values) {
    if (!std::isfinite(v)) continue;
    ASSERT_EQ(written(v), printf_reference(v))
        << std::hex << std::bit_cast<std::uint64_t>(v);
    ++compared;
  }
  EXPECT_GT(compared, 99000);
}

}  // namespace
}  // namespace madpipe::json
