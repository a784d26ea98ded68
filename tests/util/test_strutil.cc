/** Unit tests for util/strutil. */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>

#include "random/rng.hh"
#include "util/strutil.hh"

namespace snoop {
namespace {

TEST(FormatDouble, RespectsDigits)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(3.14159, 0), "3");
    EXPECT_EQ(formatDouble(-1.5, 1), "-1.5");
}

TEST(FormatCompact, TrimsTrailingZeros)
{
    EXPECT_EQ(formatCompact(5.30, 3), "5.3");
    EXPECT_EQ(formatCompact(5.0, 3), "5");
    EXPECT_EQ(formatCompact(5.125, 3), "5.125");
}

TEST(FormatCompact, HonorsMinDigits)
{
    EXPECT_EQ(formatCompact(5.30, 3, 2), "5.30");
    EXPECT_EQ(formatCompact(5.0, 3, 1), "5.0");
}

/** The formatters' previous implementation, kept as the oracle:
 *  printf's "%.*f" in the C locale. */
std::string
printfFixed(double v, int digits)
{
    char buf[512];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    return buf;
}

/** The previous formatCompact: trim printf's trailing zeros. */
std::string
printfCompact(double v, int max_digits, int min_digits)
{
    std::string s = printfFixed(v, max_digits);
    auto dot = s.find('.');
    if (dot == std::string::npos)
        return s;
    size_t last = s.size();
    size_t min_len = (min_digits == 0)
        ? dot : dot + 1 + static_cast<size_t>(min_digits);
    while (last > min_len && last > dot + 1 && s[last - 1] == '0')
        --last;
    if (last == dot + 1)
        --last;
    return s.substr(0, last);
}

/**
 * Count of @p values whose formatDouble bytes differ from the printf
 * oracle's at some precision in 0..6, or whose formatCompact bytes
 * differ at the precision the value's index picks; the first few are
 * reported.
 */
size_t
formatterMismatches(const std::vector<double> &values)
{
    size_t bad = 0;
    for (size_t i = 0; i < values.size(); ++i) {
        const double v = values[i];
        const int compact_digits = static_cast<int>(i % 7);
        for (int digits = 0; digits <= 6; ++digits) {
            const int min_digits = digits / 2;
            std::string got = formatDouble(v, digits);
            std::string want = printfFixed(v, digits);
            std::string got_compact, want_compact;
            if (digits == compact_digits) {
                got_compact = formatCompact(v, digits, min_digits);
                want_compact = printfCompact(v, digits, min_digits);
            }
            if (got == want && got_compact == want_compact)
                continue;
            if (++bad <= 5) {
                ADD_FAILURE() << "bits 0x" << std::hex
                              << std::bit_cast<uint64_t>(v) << std::dec
                              << " at " << digits << " digits: \""
                              << got << "\" / \"" << got_compact
                              << "\", printf \"" << want << "\" / \""
                              << want_compact << "\"";
            }
        }
    }
    return bad;
}

TEST(FormatDouble, MatchesPrintfOnSeededDoubles)
{
    // 2^20 SplitMix64 draws in three families: raw bit patterns
    // (every exponent, subnormals, infinities and NaN payloads of both
    // signs), speedups and utilizations as the tables print them,
    // and values on a 1/1000 lattice - the ties and near-ties where
    // the third decimal rounds.
    constexpr size_t kPerFamily = (size_t{1} << 20) / 3 + 1;
    uint64_t state = 0xf0a7ed5eedULL;
    std::vector<double> values;
    values.reserve(3 * kPerFamily);
    for (size_t i = 0; i < kPerFamily; ++i)
        values.push_back(std::bit_cast<double>(splitMix64(state)));
    for (size_t i = 0; i < kPerFamily; ++i) {
        double unit = static_cast<double>(splitMix64(state) >> 11) *
            0x1p-53;
        values.push_back((i & 1) ? 40.0 * unit : unit);
    }
    for (size_t i = 0; i < kPerFamily; ++i) {
        double v = static_cast<double>(splitMix64(state) % 100000) /
            1000.0;
        values.push_back((splitMix64(state) & 1) ? -v : v);
    }
    ASSERT_GE(values.size(), size_t{1} << 20);
    EXPECT_EQ(formatterMismatches(values), 0u);
}

TEST(FormatDouble, MatchesPrintfOnSpecialValues)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> values = {
        0.0, -0.0, inf, -inf, nan, -nan, DBL_MAX, -DBL_MAX, DBL_MIN,
        DBL_TRUE_MIN, -DBL_TRUE_MIN,
        // Exact decimal ties: printf rounds them half to even.
        0.125, 0.375, 2.5, 3.5, -2.5, 0.5, 1.5, 1.0625, 1e22, 1e23,
        // Values that print as negative zero.
        -0.0001, -1e-300};
    EXPECT_EQ(formatterMismatches(values), 0u);
    EXPECT_EQ(formatDouble(-nan, 3), "-nan");
    EXPECT_EQ(formatDouble(-0.0001, 3), "-0.000");
    EXPECT_EQ(formatDouble(2.5, 0), "2");
    EXPECT_EQ(formatDouble(0.125, 2), "0.12");
    EXPECT_EQ(formatDouble(DBL_MAX, 6).size(), 309u + 7u);
}

TEST(FormatDouble, WidePrecisionFallsBackToPrintf)
{
    EXPECT_EQ(formatDouble(1.0 / 3.0, 80), printfFixed(1.0 / 3.0, 80));
    EXPECT_EQ(formatDouble(DBL_MAX, 70), printfFixed(DBL_MAX, 70));
    EXPECT_EQ(formatDouble(0.5, -1), printfFixed(0.5, -1));
    std::string out = "x=";
    appendDouble(out, 0.5, 2);
    EXPECT_EQ(out, "x=0.50");
}

TEST(FormatPercent, ScalesFraction)
{
    EXPECT_EQ(formatPercent(0.0312), "3.12%");
    EXPECT_EQ(formatPercent(1.0, 0), "100%");
    EXPECT_EQ(formatPercent(-0.05, 1), "-5.0%");
}

TEST(Pad, LeftRightCenter)
{
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padCenter("ab", 6), "  ab  ");
    EXPECT_EQ(padCenter("ab", 5), " ab  ");
}

TEST(Pad, NoTruncation)
{
    EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
    EXPECT_EQ(padRight("abcdef", 3), "abcdef");
    EXPECT_EQ(padCenter("abcdef", 3), "abcdef");
}

TEST(Split, PreservesEmptyFields)
{
    auto v = split("a,,b", ',');
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[1], "");
    EXPECT_EQ(v[2], "b");
}

TEST(Split, SingleField)
{
    auto v = split("abc", ',');
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], "abc");
}

TEST(Split, EmptyString)
{
    auto v = split("", ',');
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], "");
}

TEST(Join, RoundTripsWithSplit)
{
    std::vector<std::string> parts = {"x", "y", "z"};
    EXPECT_EQ(join(parts, ","), "x,y,z");
    EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Join, EmptyAndSingle)
{
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"a"}, ","), "a");
}

TEST(ToLower, Basic)
{
    EXPECT_EQ(toLower("WriteOnce"), "writeonce");
    EXPECT_EQ(toLower("ABC-123"), "abc-123");
}

TEST(StartsWith, Basic)
{
    EXPECT_TRUE(startsWith("--flag", "--"));
    EXPECT_FALSE(startsWith("-", "--"));
    EXPECT_TRUE(startsWith("abc", ""));
}

TEST(Trim, StripsWhitespace)
{
    EXPECT_EQ(trim("  a b  "), "a b");
    EXPECT_EQ(trim("\t\nx"), "x");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(ParseDouble, AcceptsValidRejectsGarbage)
{
    double v = 0;
    EXPECT_TRUE(parseDouble("3.5", v));
    EXPECT_DOUBLE_EQ(v, 3.5);
    EXPECT_TRUE(parseDouble("-1e3", v));
    EXPECT_DOUBLE_EQ(v, -1000.0);
    EXPECT_FALSE(parseDouble("3.5x", v));
    EXPECT_FALSE(parseDouble("", v));
    EXPECT_FALSE(parseDouble("abc", v));
}

TEST(ParseInt, AcceptsValidRejectsGarbage)
{
    long v = 0;
    EXPECT_TRUE(parseInt("42", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseInt("-7", v));
    EXPECT_EQ(v, -7);
    EXPECT_FALSE(parseInt("4.2", v));
    EXPECT_FALSE(parseInt("", v));
    EXPECT_FALSE(parseInt("12a", v));
}

} // namespace
} // namespace snoop
