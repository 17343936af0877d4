#include "support/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>

namespace iddq::json {
namespace {

TEST(Json, ParsesFlatProtocolObject) {
  const auto v = JsonValue::parse(
      R"({"op":"submit","id":"t1","seed":42,"cache":true,"budget":0})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  EXPECT_EQ(v->get_string("op"), "submit");
  EXPECT_EQ(v->get_string("id"), "t1");
  EXPECT_EQ(v->get_u64("seed"), 42u);
  EXPECT_TRUE(v->get_bool("cache", false));
  EXPECT_EQ(v->get_u64("budget", 7), 0u);
  // Defaults for absent members.
  EXPECT_EQ(v->get_string("missing", "dflt"), "dflt");
  EXPECT_EQ(v->get_u64("missing", 9), 9u);
  EXPECT_FALSE(v->get_bool("missing", false));
}

TEST(Json, ParsesNestedArrays) {
  const auto v = JsonValue::parse(
      R"({"circuits":["c17","c1908"],"c":[1.5,-2,3e2],"deep":[[1],[2,3]]})");
  ASSERT_TRUE(v.has_value());
  const JsonValue* circuits = v->find("circuits");
  ASSERT_NE(circuits, nullptr);
  ASSERT_EQ(circuits->items().size(), 2u);
  EXPECT_EQ(circuits->items()[0].as_string(), "c17");
  const JsonValue* c = v->find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->items()[0].as_double(), 1.5);
  EXPECT_DOUBLE_EQ(c->items()[1].as_double(), -2.0);
  EXPECT_DOUBLE_EQ(c->items()[2].as_double(), 300.0);
  const JsonValue* deep = v->find("deep");
  ASSERT_NE(deep, nullptr);
  ASSERT_EQ(deep->items().size(), 2u);
  EXPECT_EQ(deep->items()[1].items().size(), 2u);
}

TEST(Json, U64RoundTripsWithoutDoubleLoss) {
  // 2^63 + 1 is not representable as a double; the raw token must
  // survive parse -> as_u64.
  const std::uint64_t big = (1ull << 63) + 1;
  std::string line = JsonWriter().field("seed", big).str();
  const auto v = JsonValue::parse(line);
  ASSERT_TRUE(v.has_value());
  std::uint64_t out = 0;
  ASSERT_TRUE(v->find("seed")->as_u64(out));
  EXPECT_EQ(out, big);
}

TEST(Json, DoublesRoundTripExactly) {
  const double awkward[] = {0.1, 1.0 / 3.0, 3307.1927303185653,
                            std::numeric_limits<double>::denorm_min(),
                            -1.2345678901234567e-300};
  for (const double d : awkward) {
    const std::string line = JsonWriter().field("x", d).str();
    const auto v = JsonValue::parse(line);
    ASSERT_TRUE(v.has_value()) << line;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v->get_double("x")),
              std::bit_cast<std::uint64_t>(d))
        << line;
  }
}

TEST(Json, EscapesRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\x01" "f";
  const std::string line = JsonWriter().field("s", nasty).str();
  const auto v = JsonValue::parse(line);
  ASSERT_TRUE(v.has_value()) << line;
  EXPECT_EQ(v->get_string("s"), nasty);
}

TEST(Json, WriterComposesObjectsAndArrays) {
  JsonWriter arr(JsonWriter::Kind::Array);
  arr.element("a").element(std::uint64_t{2});
  const std::string line = JsonWriter()
                               .field("event", "row")
                               .field_raw("items", arr.str())
                               .field("ok", true)
                               .str();
  EXPECT_EQ(line, R"({"event":"row","items":["a",2],"ok":true})");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::parse("").has_value());
  EXPECT_FALSE(JsonValue::parse("{").has_value());
  EXPECT_FALSE(JsonValue::parse(R"({"a":})").has_value());
  EXPECT_FALSE(JsonValue::parse(R"({"a":1} trailing)").has_value());
  EXPECT_FALSE(JsonValue::parse(R"({"a":01x})").has_value());
  EXPECT_FALSE(JsonValue::parse(R"({"a":"unterminated)").has_value());
  EXPECT_FALSE(JsonValue::parse(R"([1,2,)").has_value());
  EXPECT_FALSE(JsonValue::parse("nul").has_value());
}

TEST(Json, ParsesScalarsAndNull) {
  EXPECT_TRUE(JsonValue::parse("null")->is_null());
  EXPECT_TRUE(JsonValue::parse("true")->as_bool());
  EXPECT_FALSE(JsonValue::parse("false")->as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("-12.5e-1")->as_double(), -1.25);
  EXPECT_TRUE(JsonValue::parse("  {}  ")->is_object());
  EXPECT_TRUE(JsonValue::parse("[]")->is_array());
}

TEST(Json, StrictDoubleRejectsOutOfRangeAndNonNumbers) {
  double v = 7.0;
  EXPECT_TRUE(JsonValue::parse("0.25")->as_double(v));
  EXPECT_EQ(v, 0.25);
  EXPECT_FALSE(JsonValue::parse("1e999")->as_double(v));
  EXPECT_EQ(JsonValue::parse("1e999")->as_double(), 0.0);
  EXPECT_FALSE(JsonValue::parse(R"("1.5")")->as_double(v));
  EXPECT_FALSE(JsonValue::parse("[1.5]")->as_double(v));
}

}  // namespace
}  // namespace iddq::json
