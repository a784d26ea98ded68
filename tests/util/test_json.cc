/**
 * Tests for the shared JSON codec (util/json.hh, consumed by both the
 * serve wire protocol and the sweep checkpoint format): round trips,
 * deterministic serialization (sorted keys, shortest round-trip
 * numbers, integers as integers), structured parse errors with byte
 * offsets, escape handling including surrogate pairs, the depth
 * bound, the non-finite-number rejection the admission contract
 * relies on, and the SolveError round trip error cells ride on.
 * The number encoder is pinned byte for byte to the printf search
 * loop it replaced, over 2^20+ seeded doubles, every power of two,
 * exact ties and large magnitudes.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.hh"
#include "util/json.hh"

namespace snoop {
namespace {

JsonValue
parsed(const std::string &text)
{
    auto v = parseJson(text);
    EXPECT_TRUE(bool(v)) << text;
    return v ? std::move(v).value() : JsonValue();
}

TEST(Json, RoundTripsScalars)
{
    EXPECT_EQ(serializeJson(parsed("null")), "null");
    EXPECT_EQ(serializeJson(parsed("true")), "true");
    EXPECT_EQ(serializeJson(parsed("false")), "false");
    EXPECT_EQ(serializeJson(parsed("42")), "42");
    EXPECT_EQ(serializeJson(parsed("-1.5")), "-1.5");
    EXPECT_EQ(serializeJson(parsed("\"hi\"")), "\"hi\"");
}

TEST(Json, IntegersStayIntegers)
{
    // %.1g would print 30 as "3e+01", which round-trips but reads
    // badly in response logs; the serializer special-cases integers.
    EXPECT_EQ(serializeJson(JsonValue(30)), "30");
    EXPECT_EQ(serializeJson(JsonValue(1e6)), "1000000");
    EXPECT_EQ(serializeJson(JsonValue(-7.0)), "-7");
}

TEST(Json, NumbersRoundTripShortest)
{
    // The shortest form that parses back to the same bits.
    double v = 0.1;
    auto r = parseJson(serializeJson(JsonValue(v)));
    ASSERT_TRUE(bool(r));
    EXPECT_EQ(r.value().asNumber(), v);
    EXPECT_EQ(serializeJson(JsonValue(0.1)), "0.1");
}

/**
 * The number encoder's previous implementation, kept verbatim as the
 * oracle: the smallest `%.{p}g` precision that round-trips through
 * strtod, integers below 1e15 through `%.0f`. Checkpoint header
 * checksums hash the encoder's bytes, so the new one must match it.
 */
std::string
printfSearchNumber(double v)
{
    char buf[40];
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return buf;
    }
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

/** Uniform in [0, 1) from the top 53 bits of one SplitMix64 draw. */
double
unitOf(uint64_t &state)
{
    return static_cast<double>(splitMix64(state) >> 11) * 0x1p-53;
}

/**
 * Count of @p values whose encoding differs from the oracle's or does
 * not parse back to the same bits; the first few are reported.
 */
size_t
encoderMismatches(const std::vector<double> &values)
{
    size_t bad = 0;
    for (double v : values) {
        std::string got = serializeJson(JsonValue(v));
        std::string want = printfSearchNumber(v);
        auto back = parseJson(got);
        bool exact = back && back.value().isNumber() &&
                     std::bit_cast<uint64_t>(back.value().asNumber()) ==
                         std::bit_cast<uint64_t>(v);
        if (got == want && exact)
            continue;
        if (++bad <= 5) {
            ADD_FAILURE() << "bits 0x" << std::hex
                          << std::bit_cast<uint64_t>(v)
                          << ": encoded \"" << got << "\", oracle \""
                          << want << "\", parse-back "
                          << (exact ? "exact" : "inexact");
        }
    }
    return bad;
}

TEST(JsonNumbers, MatchPrintfSearchOnSeededDoubles)
{
    // 2^20 draws in three families: raw finite bit patterns (every
    // exponent, subnormals included), [0, 1000) uniforms (the model's
    // own range), and a uniform mantissa at a uniform binary exponent.
    constexpr size_t kPerFamily = (size_t{1} << 20) / 3 + 1;
    uint64_t state = 0x5eed0f15ULL;
    std::vector<double> values;
    values.reserve(3 * kPerFamily);
    while (values.size() < kPerFamily) {
        double v = std::bit_cast<double>(splitMix64(state));
        if (std::isfinite(v))
            values.push_back(v);
    }
    for (size_t i = 0; i < kPerFamily; ++i)
        values.push_back(1000.0 * unitOf(state));
    for (size_t i = 0; i < kPerFamily; ++i) {
        int exp = static_cast<int>(splitMix64(state) % 2098) - 1074;
        double v = std::ldexp(1.0 + unitOf(state), exp);
        values.push_back((splitMix64(state) & 1) ? -v : v);
    }
    ASSERT_GE(values.size(), size_t{1} << 20);
    EXPECT_EQ(encoderMismatches(values), 0u);
}

TEST(JsonNumbers, MatchPrintfSearchAtEveryPowerOfTwo)
{
    // Powers of two are where the rounding interval is asymmetric, so
    // the correctly rounded shortest-length digits can miss it and
    // the encoder must step to one more digit. 2^-1074 .. 2^1023,
    // each with its +-4-ulp neighbours and both signs.
    std::vector<double> values{-0.0};
    for (int exp = -1074; exp <= 1023; ++exp) {
        auto centre = std::bit_cast<int64_t>(std::ldexp(1.0, exp));
        for (int64_t d = -4; d <= 4; ++d) {
            auto v = std::bit_cast<double>(centre + d);
            if (!std::isfinite(v) || v == 0.0)
                continue;
            values.push_back(v);
            values.push_back(-v);
        }
    }
    EXPECT_GE(values.size(), 37000u);
    EXPECT_EQ(encoderMismatches(values), 0u);
}

TEST(JsonNumbers, IntegerBranchMatchesPrintf)
{
    constexpr double kTwo53 = 9007199254740992.0;
    std::vector<double> values{-0.0, 0.0, kTwo53, -kTwo53,
                               999999999999999.0, -999999999999999.0,
                               1e15, -1e15, 1e15 - 1, 1e14, 1e16};
    uint64_t state = 0x1e15ULL;
    for (int i = 0; i < 20000; ++i) {
        double scale = std::pow(10.0, static_cast<int>(i % 18));
        values.push_back(std::floor(scale * unitOf(state)));
    }
    EXPECT_EQ(encoderMismatches(values), 0u);
    EXPECT_EQ(serializeJson(JsonValue(-0.0)), "-0");
    EXPECT_EQ(serializeJson(JsonValue(kTwo53)), "9007199254740992");
    EXPECT_EQ(serializeJson(JsonValue(-kTwo53)), "-9007199254740992");
    EXPECT_EQ(serializeJson(JsonValue(999999999999999.0)),
              "999999999999999");
}

TEST(JsonNumbers, ExactTiesRoundToEvenAsPrintfDoes)
{
    // Between 2^50 and 2^51 the spacing is 1/4, so x.25 and x.75 are
    // exact, their shortest round-trip form has 17 digits, and they
    // sit exactly halfway between two 17-digit decimals: the shortest
    // digits and %.17g must both break the tie to even.
    std::vector<double> values;
    uint64_t state = 0x71e5ULL;
    for (int i = 0; i < 4096; ++i) {
        double whole =
            0x1p50 + static_cast<double>(splitMix64(state) >> 14);
        for (double v : {whole + 0.25, whole + 0.75}) {
            values.push_back(v);
            values.push_back(-v);
        }
    }
    EXPECT_EQ(encoderMismatches(values), 0u);
    EXPECT_EQ(serializeJson(JsonValue(0x1p50 + 0.25)),
              "1125899906842624.2");
    EXPECT_EQ(serializeJson(JsonValue(0x1p50 + 0.75)),
              "1125899906842624.8");
}

TEST(JsonNumbers, LargeMagnitudesAndFormBoundariesMatchPrintf)
{
    // Past the integer branch (|v| >= 1e15) %g prints fixed digits up
    // to its precision and an exponent beyond; near 1e-4 it switches
    // from "0.000d" to "de-05". Both edges, the famous 1e23 and the
    // ends of the double range.
    constexpr double kMax = std::numeric_limits<double>::max();
    std::vector<double> values{
        1e15, 1e15 + 0.125, 1e16, 1e17, 123456789012345678.0,
        1.5e15, 4.35e15, 9007199254740993.0, 1e21, 1e22, 1e23,
        9.999999999999999e22, 1.5e300, kMax,
        std::nextafter(kMax, 0.0), 1e-4, 1.2345e-4, 9.9999e-5, 1e-5,
        0.00012, 1.0000000000000002, 0.1 + 0.2,
        std::numeric_limits<double>::min(),
        std::nextafter(std::numeric_limits<double>::min(), 1.0)};
    uint64_t state = 0xb16ULL;
    for (int i = 0; i < 20000; ++i) {
        int exp = 50 + static_cast<int>(splitMix64(state) % 974);
        values.push_back(std::ldexp(1.0 + unitOf(state), exp));
        double decade =
            std::pow(10.0, static_cast<int>(splitMix64(state) % 10) - 7);
        values.push_back(decade * (1.0 + unitOf(state)));
    }
    for (size_t i = 0, n = values.size(); i < n; ++i)
        values.push_back(-values[i]);
    EXPECT_EQ(encoderMismatches(values), 0u);
    EXPECT_EQ(serializeJson(JsonValue(1e23)), "1e+23");
    EXPECT_EQ(serializeJson(JsonValue(kMax)), "1.7976931348623157e+308");
    EXPECT_EQ(serializeJson(JsonValue(1.2345e-4)), "0.00012345");
    EXPECT_EQ(serializeJson(JsonValue(1.2345e-5)), "1.2345e-05");
}

TEST(JsonNumbers, NonFiniteValuesPrintAsPrintfDoes)
{
    // Callers map these to null before serializing; the encoder still
    // prints them deterministically, as the old loop did.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    for (double v : {kInf, -kInf, kNan, -kNan})
        EXPECT_EQ(serializeJson(JsonValue(v)), printfSearchNumber(v));
}

TEST(Json, ControlCharactersEscapeWithLowercaseHex)
{
    for (unsigned c = 1; c < 0x20; ++c) {
        if (c == '\b' || c == '\f' || c == '\n' || c == '\r' ||
            c == '\t')
            continue;
        char want[16];
        std::snprintf(want, sizeof want, "\"\\u%04x\"", c);
        EXPECT_EQ(serializeJson(JsonValue(std::string(1, char(c)))),
                  want)
            << c;
    }
}

TEST(Json, ObjectKeysSerializeSorted)
{
    auto v = parsed("{\"b\":1,\"a\":2,\"c\":3}");
    EXPECT_EQ(serializeJson(v), "{\"a\":2,\"b\":1,\"c\":3}");
}

TEST(Json, NestedStructuresRoundTrip)
{
    std::string text =
        "{\"a\":[1,2,{\"b\":null}],\"c\":{\"d\":[true,false]}}";
    EXPECT_EQ(serializeJson(parsed(text)), text);
}

TEST(Json, StringEscapesRoundTrip)
{
    auto v = parsed("\"line\\nquote\\\"tab\\tback\\\\slash\\/\"");
    EXPECT_EQ(v.asString(), "line\nquote\"tab\tback\\slash/");
    auto again = parseJson(serializeJson(v));
    ASSERT_TRUE(bool(again));
    EXPECT_EQ(again.value().asString(), v.asString());
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    EXPECT_EQ(parsed("\"\\u0041\"").asString(), "A");
    EXPECT_EQ(parsed("\"\\u00e9\"").asString(), "\xc3\xa9");
    // Surrogate pair: U+1F600.
    EXPECT_EQ(parsed("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(Json, UnpairedSurrogateIsRejected)
{
    EXPECT_FALSE(bool(parseJson("\"\\ud83d\"")));
    EXPECT_FALSE(bool(parseJson("\"\\ud83dx\"")));
}

TEST(Json, ControlCharactersEscapeOnOutput)
{
    // Split the literal: "\x01b" would be one hex escape (0x1B).
    JsonValue v(std::string("a\x01"
                            "b"));
    EXPECT_EQ(serializeJson(v), "\"a\\u0001b\"");
}

TEST(Json, ParseErrorsCarryByteOffsets)
{
    auto r = parseJson("{\"a\": }");
    ASSERT_FALSE(bool(r));
    EXPECT_EQ(r.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message.find("at byte"), std::string::npos);
}

TEST(Json, TrailingGarbageIsRejected)
{
    EXPECT_FALSE(bool(parseJson("{} trailing")));
    EXPECT_FALSE(bool(parseJson("1 2")));
}

TEST(Json, NonFiniteNumbersAreRejected)
{
    // JSON has no NaN/inf literal; an overflowing exponent is the
    // only route to a non-finite double, and it must not parse.
    EXPECT_FALSE(bool(parseJson("1e999")));
    EXPECT_FALSE(bool(parseJson("[-1e999]")));
    EXPECT_FALSE(bool(parseJson("nan")));
    EXPECT_FALSE(bool(parseJson("Infinity")));
}

TEST(Json, NonJsonNumberTokensKeepStrtodsVerdict)
{
    // A token from_chars does not take whole goes to strtod, which
    // decides it as the decoder always has: these are accepted...
    EXPECT_EQ(parsed("+1").asNumber(), 1.0);
    EXPECT_EQ(parsed("1.").asNumber(), 1.0);
    EXPECT_EQ(parsed(".5").asNumber(), 0.5);
    EXPECT_EQ(parsed("-.5").asNumber(), -0.5);
    EXPECT_EQ(parsed("01").asNumber(), 1.0);
    EXPECT_EQ(parsed("[1E+2]").asArray()[0].asNumber(), 100.0);
    // ...and these are refused.
    for (const char *bad : {"-", "+", "--1", "+-1", "1e", "1e+", "1.2.3",
                            "0x10", "1-2", "[+]", "{\"a\":-}"})
        EXPECT_FALSE(bool(parseJson(bad))) << bad;
}

TEST(Json, SubnormalsParseButTotalUnderflowIsRejected)
{
    // strtod flags every subnormal result with ERANGE; the encoder
    // writes subnormals, so the decoder must read them back.
    constexpr double kMin = std::numeric_limits<double>::denorm_min();
    EXPECT_EQ(parsed("5e-324").asNumber(), kMin);
    EXPECT_EQ(parsed("-1e-310").asNumber(), -1e-310);
    EXPECT_FALSE(bool(parseJson("1e-400")));
    EXPECT_EQ(parsed("0e-400").asNumber(), 0.0);
}

TEST(Json, DepthBoundRejectsRunawayNesting)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += "[";
    EXPECT_FALSE(bool(parseJson(deep)));
    // 32 levels is comfortably inside the bound.
    std::string ok(32, '[');
    ok += std::string(32, ']');
    EXPECT_TRUE(bool(parseJson(ok)));
}

TEST(Json, AccessorsAndLookup)
{
    auto v = parsed("{\"x\":1,\"y\":[true]}");
    ASSERT_TRUE(v.isObject());
    ASSERT_NE(v.get("x"), nullptr);
    EXPECT_EQ(v.get("x")->asNumber(), 1.0);
    EXPECT_EQ(v.get("missing"), nullptr);
    ASSERT_TRUE(v.get("y")->isArray());
    EXPECT_TRUE(v.get("y")->asArray()[0].asBool());
}

TEST(Json, SolveErrorRoundTripsExactly)
{
    SolveError e = makeError(SolveErrorCode::NonConvergence,
                             "MvaSolver::solve",
                             "residual 1e-3 after 40 iterations");
    e.withContext("cell (2, 1)").withContext("runSweep");
    SolveError back;
    ASSERT_TRUE(solveErrorFromJson(solveErrorToJson(e), back).ok());
    EXPECT_EQ(back.code, e.code);
    EXPECT_EQ(back.site, e.site);
    EXPECT_EQ(back.message, e.message);
    EXPECT_EQ(back.context, e.context);
    EXPECT_EQ(back.describe(), e.describe());
    // Serialization is canonical, so the round trip is bit-stable.
    EXPECT_EQ(serializeJson(solveErrorToJson(back)),
              serializeJson(solveErrorToJson(e)));
}

TEST(Json, SolveErrorEveryCodeRoundTrips)
{
    for (SolveErrorCode c :
         {SolveErrorCode::InvalidArgument,
          SolveErrorCode::UnknownProtocol,
          SolveErrorCode::NonConvergence,
          SolveErrorCode::NonFiniteIterate,
          SolveErrorCode::NumericRange, SolveErrorCode::BudgetExhausted,
          SolveErrorCode::InjectedFault, SolveErrorCode::IoError,
          SolveErrorCode::Internal}) {
        SolveError e = makeError(c, "site", "msg");
        SolveError back;
        ASSERT_TRUE(solveErrorFromJson(solveErrorToJson(e), back).ok())
            << to_string(c);
        EXPECT_EQ(back.code, c);
    }
}

TEST(Json, MalformedSolveErrorsAreRejected)
{
    SolveError out;
    EXPECT_FALSE(solveErrorFromJson(JsonValue(1.0), out).ok());
    EXPECT_FALSE(solveErrorFromJson(parsed("{}"), out).ok());
    auto bad_code = solveErrorFromJson(parsed(
        "{\"code\":\"bogus\",\"site\":\"s\",\"message\":\"m\"}"), out);
    ASSERT_FALSE(bad_code.ok());
    EXPECT_NE(bad_code.error().message.find("bogus"),
              std::string::npos);
    EXPECT_FALSE(solveErrorFromJson(parsed(
        "{\"code\":\"internal\",\"site\":\"s\",\"message\":\"m\","
        "\"context\":\"not-an-array\"}"), out).ok());
    EXPECT_FALSE(solveErrorFromJson(parsed(
        "{\"code\":\"internal\",\"site\":\"s\",\"message\":\"m\","
        "\"context\":[1]}"), out).ok());
}

} // namespace
} // namespace snoop
