// The one JSON reader (util/json.hpp): the strict grammar, exact number
// round-trips, and the promise that every string the repo writes through
// fmt_json_str — and every perf-baseline document — reads back.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "obs/perf_baseline.hpp"
#include "util/format.hpp"
#include "util/status.hpp"

namespace hh {
namespace {

TEST(Json, ParsesEveryValueKind) {
  const JsonValue v = parse_json(
      " {\"a\":[1,-2.5e3,\"x\\u00e9\\ud83d\\ude00\"],\"b\":true,"
      "\"c\":false,\"d\":null,\"e\":{}} \n");
  ASSERT_EQ(v.type(), JsonValue::Type::kObject);
  std::vector<std::string> keys;
  for (const JsonValue& m : v.items()) keys.push_back(m.key());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c", "d", "e"}));
  const std::vector<JsonValue>& a = v.at("a").items();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].as<std::int64_t>(), 1);
  EXPECT_EQ(a[1].as<double>(), -2500.0);
  EXPECT_EQ(a[2].as<std::string>(), "x\xc3\xa9\xf0\x9f\x98\x80");
  EXPECT_TRUE(v.at("b").as<bool>());
  EXPECT_FALSE(v.at("c").as<bool>());
  EXPECT_EQ(v.at("d").type(), JsonValue::Type::kNull);
  EXPECT_TRUE(v.at("e").items().empty());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(parse_json("[]").items().size(), 0u);
  EXPECT_EQ(parse_json("\"\"").as<std::string>(), "");
  EXPECT_EQ(parse_json("0").as<std::uint64_t>(), 0u);
}

TEST(Json, RejectsMalformedCorpus) {
  const std::vector<std::string> corpus = {
      "",
      "   ",
      "{} x",
      "1 2",
      "01",
      "-01",
      "+1",
      "1.",
      ".5",
      "-",
      "1e",
      "1e+",
      "0x10",
      "NaN",
      "inf",
      "-inf",
      "tru",
      "nul",
      "True",
      "\"a\x01b\"",
      "\"tab\there\"",
      "\"new\nline\"",
      "\"\\x\"",
      "\"\\'\"",
      "\"\\u12\"",
      "\"\\u12g4\"",
      "\"\\",
      "\"\\u",
      "\"abc",
      "\"\\ud800\"",
      "\"\\udc00\"",
      "\"\\ud800\\u0041\"",
      "{\"a\":1,\"a\":2}",
      "{\"a\":{\"b\":1,\"b\":1}}",
      "{",
      "}",
      "[",
      "]",
      "[1,2",
      "[1,2]]",
      "{\"a\":1}}",
      "[{]}",
      "{\"a\" 1}",
      "{\"a\":}",
      "{a:1}",
      "{'a':1}",
      "{\"a\":1,}",
      "[1,]",
      "[,1]",
      "// comment\n1",
      std::string(300, '[') + std::string(300, ']'),
  };
  for (const std::string& text : corpus) {
    EXPECT_THROW(parse_json(text), ParseError) << "accepted: " << text;
  }
}

TEST(Json, EveryCutOfAValidDocumentThrows) {
  const std::string doc =
      "{\"name\":\"a\\\"b\\\\c\\u0001\",\"n\":[0,-1.5e-3,18446744073709551615],"
      "\"ok\":true,\"none\":null,\"nested\":{\"x\":false}}";
  ASSERT_NO_THROW(parse_json(doc));
  for (std::size_t len = 0; len < doc.size(); ++len) {
    EXPECT_THROW(parse_json(doc.substr(0, len)), ParseError)
        << "accepted a cut at byte " << len << ": " << doc.substr(0, len);
  }
}

TEST(Json, IntegersRoundTripAtTheLimits) {
  const std::uint64_t u64_max = std::numeric_limits<std::uint64_t>::max();
  const std::int64_t i64_min = std::numeric_limits<std::int64_t>::min();
  const JsonValue v = parse_json("{\"u\":" + std::to_string(u64_max) +
                                 ",\"i\":" + std::to_string(i64_min) + "}");
  EXPECT_EQ(v.at("u").as<std::uint64_t>(), u64_max);
  EXPECT_EQ(v.at("i").as<std::int64_t>(), i64_min);
  // One past either limit, a sign on a u64, and a fraction on an integer
  // field are errors that name the key.
  const JsonValue bad = parse_json(
      "{\"u\":18446744073709551616,\"i\":-9223372036854775809,\"neg\":-1,"
      "\"frac\":1.0,\"exp\":1e3,\"s\":\"1\"}");
  for (const char* key : {"u", "neg", "frac", "exp", "s"}) {
    try {
      bad.at(key).as<std::uint64_t>();
      ADD_FAILURE() << key << " parsed as a u64";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(bad.at("i").as<std::int64_t>(), ParseError);
  EXPECT_THROW(bad.at("frac").as<std::int64_t>(), ParseError);
  try {
    bad.at("absent");
    ADD_FAILURE() << "a missing key parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("'absent'"), std::string::npos);
  }
}

TEST(Json, ExactDoublesRoundTripBitForBit) {
  const double values[] = {0.0,
                           -0.0,
                           0.1,
                           1.0 / 3.0,
                           -2.5e-300,
                           1e308,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::epsilon(),
                           123456789.123456789};
  for (const double x : values) {
    const double back = parse_json(fmt_exact(x)).as<double>();
    EXPECT_EQ(std::signbit(back), std::signbit(x)) << fmt_exact(x);
    EXPECT_EQ(back, x) << fmt_exact(x);
  }
  EXPECT_THROW(parse_json("1e400").as<double>(), ParseError);
}

TEST(Json, EveryAsciiByteSurvivesTheWriter) {
  std::string all;
  for (int c = 0x01; c <= 0x7f; ++c) {
    const std::string one(1, static_cast<char>(c));
    EXPECT_EQ(parse_json(fmt_json_str(one)).as<std::string>(), one) << c;
    all += one;
  }
  EXPECT_EQ(parse_json(fmt_json_str(all)).as<std::string>(), all);
  // Bytes >= 0x80 pass through both sides untouched.
  const std::string high = "\xc3\xa9\xff\x80";
  EXPECT_EQ(parse_json(fmt_json_str(high)).as<std::string>(), high);
}

TEST(Json, TypedGettersNameTheKey) {
  const JsonValue v = parse_json("{\"s\":\"x\",\"n\":1}");
  try {
    v.at("n").as<std::string>();
    ADD_FAILURE() << "a number read as a string";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("'n'"), std::string::npos);
  }
  try {
    v.at("s").as<bool>();
    ADD_FAILURE() << "a string read as a bool";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("'s'"), std::string::npos);
  }
  EXPECT_THROW(v.at("s").items(), ParseError);
  EXPECT_THROW(parse_json("[1]").at("x"), ParseError);
  EXPECT_THROW(parse_json("[1]").find("x"), ParseError);
}

TEST(Json, BaselineWithQuoteAndBackslashRoundTrips) {
  PerfBaseline b;
  b.bench = "a\"b\\c";
  b.scale = 0.1;
  b.requests = 3;
  b.makespan_s = 1.0 / 3.0;
  const std::string text = render_perf_baselines({b});
  const std::vector<PerfBaseline> back = parse_perf_baselines(text);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].bench, b.bench);
  EXPECT_EQ(back[0].makespan_s, b.makespan_s);
  EXPECT_EQ(render_perf_baselines(back), text);

  // Findings quote the bench name; the diff must still be a JSON document.
  std::vector<PerfBaseline> slower = back;
  slower[0].makespan_s *= 2;
  const PerfDiff d = compare_perf_baselines(back, slower);
  ASSERT_TRUE(d.regressed);
  const JsonValue j = parse_json(d.to_json());
  EXPECT_TRUE(j.at("regressed").as<bool>());
  ASSERT_EQ(j.at("findings").items().size(), d.findings.size());
  EXPECT_EQ(j.at("findings").items()[0].as<std::string>(), d.findings[0]);
}

TEST(Json, BaselineParserKeepsItsContract) {
  // Unknown keys, including nested ones, are skipped.
  const std::vector<PerfBaseline> one = parse_perf_baselines(
      "{\"bench\":\"x\",\"future\":{\"a\":[1,{\"b\":null}]},\"requests\":2}");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].requests, 2);
  EXPECT_TRUE(parse_perf_baselines("[]").empty());
  // A missing or empty bench, a wrong type, and duplicate keys throw.
  EXPECT_THROW(parse_perf_baselines("[{\"bench\":\"\"}]"), ParseError);
  EXPECT_THROW(parse_perf_baselines("[{\"bench\":1}]"), ParseError);
  EXPECT_THROW(parse_perf_baselines("[{\"bench\":\"x\",\"scale\":\"0.1\"}]"),
               ParseError);
  EXPECT_THROW(parse_perf_baselines("[{\"bench\":\"x\",\"bench\":\"y\"}]"),
               ParseError);
  EXPECT_THROW(parse_perf_baselines("[{\"bench\":\"x\"}] trailing"),
               ParseError);
}

}  // namespace
}  // namespace hh
