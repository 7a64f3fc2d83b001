/**
 * @file
 * Tests for the deterministic JSON value type: construction,
 * accessors, ordering guarantees, serialization stability, parsing,
 * and cross-type numeric equality.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hh"

namespace cgp
{
namespace
{

TEST(Json, ScalarTypesAndAccessors)
{
    EXPECT_TRUE(Json().isNull());
    EXPECT_TRUE(Json(nullptr).isNull());
    EXPECT_TRUE(Json(true).asBool());
    EXPECT_EQ(Json(-5).asInt(), -5);
    EXPECT_EQ(Json(std::uint64_t{18446744073709551615ull}).asUint(),
              18446744073709551615ull);
    EXPECT_DOUBLE_EQ(Json(2.5).asDouble(), 2.5);
    EXPECT_EQ(Json("hi").asString(), "hi");
}

TEST(Json, NumbersConvertAcrossAccessors)
{
    EXPECT_EQ(Json(7).asUint(), 7u);
    EXPECT_EQ(Json(7u).asInt(), 7);
    EXPECT_DOUBLE_EQ(Json(7).asDouble(), 7.0);
    EXPECT_THROW(Json(-1).asUint(), std::runtime_error);
    EXPECT_THROW(Json("x").asInt(), std::runtime_error);
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json o = Json::object();
    o.set("zebra", 1).set("alpha", 2).set("mid", 3);
    EXPECT_EQ(o.dump(), R"({"zebra":1,"alpha":2,"mid":3})");

    // Replacing a key keeps its position.
    o.set("alpha", 9);
    EXPECT_EQ(o.dump(), R"({"zebra":1,"alpha":9,"mid":3})");
}

TEST(Json, ArrayPushAndIndex)
{
    Json a = Json::array();
    a.push(1);
    a.push("two");
    a.push(Json::object().set("k", 3));
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a[0].asInt(), 1);
    EXPECT_EQ(a[1].asString(), "two");
    EXPECT_EQ(a[2].at("k").asInt(), 3);
    EXPECT_EQ(a.dump(), R"([1,"two",{"k":3}])");
}

TEST(Json, PrettyPrint)
{
    Json o = Json::object();
    o.set("a", 1);
    o.set("b", Json::array());
    EXPECT_EQ(o.dump(2), "{\n  \"a\": 1,\n  \"b\": []\n}");
}

TEST(Json, DumpIsByteStableAcrossRoundTrips)
{
    Json o = Json::object();
    o.set("int", -3)
        .set("uint", std::uint64_t{1234567890123ull})
        .set("dbl", 0.125)
        .set("whole", 3.0)
        .set("str", "a\"b\\c\n\t\x01");
    const std::string once = o.dump();
    const std::string twice = Json::parse(once).dump();
    EXPECT_EQ(once, twice);
    EXPECT_EQ(twice, Json::parse(twice).dump());
}

TEST(Json, ParseBasics)
{
    const Json v = Json::parse(
        R"({"a": [1, -2, 3.5, true, false, null], "b": {"c": "d"}})");
    EXPECT_EQ(v.at("a").size(), 6u);
    EXPECT_EQ(v.at("a")[1].asInt(), -2);
    EXPECT_DOUBLE_EQ(v.at("a")[2].asDouble(), 3.5);
    EXPECT_TRUE(v.at("a")[5].isNull());
    EXPECT_EQ(v.at("b").at("c").asString(), "d");
    EXPECT_FALSE(v.contains("missing"));
    EXPECT_THROW(v.at("missing"), std::runtime_error);
}

TEST(Json, ParseStringEscapes)
{
    const Json v = Json::parse(R"("line\nquote\"uAé")");
    EXPECT_EQ(v.asString(), "line\nquote\"uA\xc3\xa9");

    // Surrogate pair: U+1F600.
    EXPECT_EQ(Json::parse(R"("😀")").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, ParseRejectsGarbage)
{
    EXPECT_THROW(Json::parse(""), std::runtime_error);
    EXPECT_THROW(Json::parse("{"), std::runtime_error);
    EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
    EXPECT_THROW(Json::parse("{\"a\":1,}"), std::runtime_error);
    EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
    EXPECT_THROW(Json::parse("nul"), std::runtime_error);
    EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
}

TEST(Json, EqualityComparesNumbersByValue)
{
    EXPECT_EQ(Json(7), Json(7u));
    EXPECT_EQ(Json(7), Json(7.0));
    EXPECT_NE(Json(7), Json(8));
    EXPECT_NE(Json(-1), Json(18446744073709551615ull));

    Json a = Json::object();
    a.set("x", 1).set("y", 2);
    Json b = Json::object();
    b.set("x", 1).set("y", 2);
    EXPECT_EQ(a, b);
    b.set("y", 3);
    EXPECT_NE(a, b);
}

TEST(Json, LargeIntegersSurviveRoundTrip)
{
    const std::uint64_t big = 18446744073709551615ull;
    const std::int64_t neg = INT64_MIN;
    Json o = Json::object();
    o.set("big", big).set("neg", neg);
    EXPECT_EQ(o.dump(),
              "{\"big\":18446744073709551615,"
              "\"neg\":-9223372036854775808}");
    const Json back = Json::parse(o.dump());
    EXPECT_EQ(back.at("big").asUint(), big);
    EXPECT_EQ(back.at("neg").asInt(), neg);
}

TEST(Json, ValueIsCompact)
{
    // One active member: a node is a string's size plus the tag.
    EXPECT_LE(sizeof(Json), 40u);

    Json arr = Json::array();
    arr.push(1);
    arr.push("two");
    arr.push(Json::object());
    Json obj = Json::object();
    obj.set("a", -3).set("b", Json::array()).set("c", 2.5);
    // One value of each type, in Type order.
    const std::vector<Json> samples = {
        Json(),      Json(true),  Json(-7),
        Json(18446744073709551615ull),
        Json(0.125), Json("text \"quoted\""), arr, obj};
    for (std::size_t i = 0; i < samples.size(); ++i)
        ASSERT_EQ(static_cast<std::size_t>(samples[i].type()), i);

    for (const Json &from : samples) {
        const std::string want = from.dump();
        Json copy(from);
        EXPECT_EQ(copy.dump(), want);
        const Json moved(std::move(copy));
        EXPECT_EQ(moved.dump(), want);
        for (const Json &to : samples) {
            Json copied_over(to);
            copied_over = from;
            EXPECT_EQ(copied_over.dump(), want)
                << to.dump() << " <- " << want;
            Json moved_over(to);
            moved_over = Json(from);
            EXPECT_EQ(moved_over.dump(), want)
                << to.dump() << " <- " << want;
        }
        EXPECT_EQ(from.dump(), want);
    }
}

} // namespace
} // namespace cgp
