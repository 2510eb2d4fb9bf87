/** @file Unit tests for the run-report JSON document model. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "report/json.hh"

namespace
{

using ghrp::report::Json;
using ghrp::report::JsonError;

TEST(Json, TypesAndAccessors)
{
    EXPECT_TRUE(Json().isNull());
    EXPECT_TRUE(Json(nullptr).isNull());
    EXPECT_TRUE(Json(true).asBool());
    EXPECT_FALSE(Json(false).asBool());
    EXPECT_EQ(Json(-7).asInt(), -7);
    EXPECT_EQ(Json(std::uint64_t{18446744073709551615ull}).asUint(),
              18446744073709551615ull);
    EXPECT_DOUBLE_EQ(Json(2.5).asDouble(), 2.5);
    EXPECT_EQ(Json("hi").asString(), "hi");

    // Any numeric kind widens to double.
    EXPECT_DOUBLE_EQ(Json(-7).asDouble(), -7.0);
    EXPECT_DOUBLE_EQ(Json(7u).asDouble(), 7.0);
}

TEST(Json, TypeMismatchThrows)
{
    EXPECT_THROW(Json(1).asString(), JsonError);
    EXPECT_THROW(Json("x").asUint(), JsonError);
    EXPECT_THROW(Json(-1).asUint(), JsonError);
    EXPECT_THROW(Json(2.5).asInt(), JsonError);
    EXPECT_THROW(Json().asBool(), JsonError);
}

TEST(Json, ObjectKeepsInsertionOrder)
{
    Json obj = Json::object();
    obj.set("zebra", 1);
    obj.set("alpha", 2);
    obj.set("mid", 3);
    EXPECT_EQ(obj.dump(0), R"({"zebra":1,"alpha":2,"mid":3})");
    ASSERT_NE(obj.find("alpha"), nullptr);
    EXPECT_EQ(obj.find("alpha")->asInt(), 2);
    EXPECT_EQ(obj.find("missing"), nullptr);
    EXPECT_THROW(obj.at("missing"), JsonError);
}

TEST(Json, DumpCompactAndPretty)
{
    Json obj = Json::object();
    obj.set("a", 1);
    Json arr = Json::array();
    arr.push(true);
    arr.push("s");
    obj.set("b", std::move(arr));
    EXPECT_EQ(obj.dump(0), R"({"a":1,"b":[true,"s"]})");
    EXPECT_EQ(obj.dump(2),
              "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    \"s\"\n  ]\n}");
}

TEST(Json, StringEscapes)
{
    const Json s(std::string("a\"b\\c\n\t\x01"));
    EXPECT_EQ(s.dump(0), R"("a\"b\\c\n\t\u0001")");
    const Json parsed = Json::parse(s.dump(0));
    EXPECT_EQ(parsed.asString(), s.asString());
}

TEST(Json, ParseUnicodeEscapes)
{
    EXPECT_EQ(Json::parse(R"("A")").asString(), "A");
    // U+00E9 (e-acute) -> 2-byte UTF-8.
    EXPECT_EQ(Json::parse(R"("é")").asString(), "\xc3\xa9");
    // Surrogate pair: U+1F600.
    EXPECT_EQ(Json::parse(R"("😀")").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, NumbersClassifyOnParse)
{
    EXPECT_EQ(Json::parse("42").type(), Json::Type::Uint);
    EXPECT_EQ(Json::parse("-42").type(), Json::Type::Int);
    EXPECT_EQ(Json::parse("4.5").type(), Json::Type::Double);
    EXPECT_EQ(Json::parse("1e3").type(), Json::Type::Double);
    EXPECT_EQ(Json::parse("18446744073709551615").asUint(),
              18446744073709551615ull);
}

TEST(Json, NonFiniteDumpsAsNull)
{
    EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(0),
              "null");
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(0),
              "null");
}

TEST(Json, RoundTripIsByteIdentical)
{
    Json doc = Json::object();
    doc.set("u", std::uint64_t{12345678901234567ull});
    doc.set("i", std::int64_t{-987654321});
    doc.set("pi", 3.141592653589793);
    doc.set("tiny", 5e-324);
    doc.set("frac", 0.1);
    doc.set("s", "text with \"quotes\" and \\ slashes\n");
    Json arr = Json::array();
    for (int i = 0; i < 5; ++i)
        arr.push(i * 0.3);
    doc.set("series", std::move(arr));
    Json nested = Json::object();
    nested.set("empty_arr", Json::array());
    nested.set("empty_obj", Json::object());
    nested.set("null", nullptr);
    doc.set("nested", std::move(nested));

    for (int indent : {0, 2, 4}) {
        const std::string once = doc.dump(indent);
        const std::string twice = Json::parse(once).dump(indent);
        EXPECT_EQ(once, twice) << "indent " << indent;
    }
}

TEST(Json, ParseErrors)
{
    EXPECT_THROW(Json::parse(""), JsonError);
    EXPECT_THROW(Json::parse("{"), JsonError);
    EXPECT_THROW(Json::parse("[1,]"), JsonError);
    EXPECT_THROW(Json::parse(R"({"a":1,})"), JsonError);
    EXPECT_THROW(Json::parse("tru"), JsonError);
    EXPECT_THROW(Json::parse("1 2"), JsonError);  // trailing garbage
    EXPECT_THROW(Json::parse(R"("unterminated)"), JsonError);
    EXPECT_THROW(Json::parse(R"({"a" 1})"), JsonError);
    EXPECT_THROW(Json::parse("--1"), JsonError);
    // Unbounded nesting is refused, not recursed into until the stack
    // overflows; nesting up to the bound still parses.
    EXPECT_THROW(Json::parse(std::string(1'000'000, '[')), JsonError);
    EXPECT_THROW(Json::parse(std::string(Json::kMaxDepth + 1, '[') +
                             std::string(Json::kMaxDepth + 1, ']')),
                 JsonError);
    EXPECT_NO_THROW(Json::parse(std::string(Json::kMaxDepth, '[') +
                                std::string(Json::kMaxDepth, ']')));
}

TEST(Json, ParseWhitespaceTolerant)
{
    const Json doc =
        Json::parse("  {\n\t\"a\" : [ 1 , 2 ] ,\r\n \"b\" : null }  ");
    EXPECT_EQ(doc.at("a").size(), 2u);
    EXPECT_TRUE(doc.at("b").isNull());
}

} // namespace
