/**
 * Tests for LineReader: bounded lines, the over-cap skip, and the
 * unterminated final line.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/line_reader.hh"

namespace snoop {
namespace {

TEST(LineReader, ReadsLinesAndReportsTheMissingFinalNewline)
{
    std::istringstream in("alpha\n\nbeta");
    LineReader reader(in, 8);
    ASSERT_EQ(reader.next(), LineStatus::Line);
    EXPECT_EQ(reader.line(), "alpha");
    EXPECT_TRUE(reader.terminated());
    ASSERT_EQ(reader.next(), LineStatus::Line);
    EXPECT_EQ(reader.line(), "");
    EXPECT_TRUE(reader.terminated());
    ASSERT_EQ(reader.next(), LineStatus::Line);
    EXPECT_EQ(reader.line(), "beta");
    EXPECT_FALSE(reader.terminated());
    EXPECT_EQ(reader.next(), LineStatus::End);
    EXPECT_EQ(reader.next(), LineStatus::End);
}

TEST(LineReader, LinesAtTheCapAreKeptLongerOnesSkippedToTheNewline)
{
    std::istringstream in("1234\n12345\nok\n123456789");
    LineReader reader(in, 4);
    EXPECT_EQ(reader.maxBytes(), 4u);
    ASSERT_EQ(reader.next(), LineStatus::Line);
    EXPECT_EQ(reader.line(), "1234");
    EXPECT_TRUE(reader.terminated());
    EXPECT_EQ(reader.next(), LineStatus::TooLong);
    ASSERT_EQ(reader.next(), LineStatus::Line);
    EXPECT_EQ(reader.line(), "ok");
    // An over-long final line without a newline is still too long.
    EXPECT_EQ(reader.next(), LineStatus::TooLong);
    EXPECT_EQ(reader.next(), LineStatus::End);
}

TEST(LineReader, ACapLengthLineAtTheEndOfTheStreamIsAnUnterminatedLine)
{
    std::istringstream in("abcd");
    LineReader reader(in, 4);
    ASSERT_EQ(reader.next(), LineStatus::Line);
    EXPECT_EQ(reader.line(), "abcd");
    EXPECT_FALSE(reader.terminated());
    EXPECT_EQ(reader.next(), LineStatus::End);
}

TEST(LineReader, EmptyStreamEndsAtOnce)
{
    std::istringstream in("");
    LineReader reader(in);
    EXPECT_EQ(reader.maxBytes(), kMaxLineBytes);
    EXPECT_EQ(reader.next(), LineStatus::End);
}

} // namespace
} // namespace snoop
