/** Unit tests for util/csv. */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "util/csv.hh"

namespace snoop {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

class CsvTest : public testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = testing::TempDir() + "snoop_csv_test.csv";
    }
    void TearDown() override { std::remove(path_.c_str()); }
    std::string path_;
};

TEST_F(CsvTest, WritesHeaderAndRows)
{
    {
        CsvWriter w(path_);
        w.header({"n", "speedup"});
        w.row({"4", "3.17"});
        w.rowDoubles({10.0, 5.49}, 2);
    }
    EXPECT_EQ(slurp(path_), "n,speedup\n4,3.17\n10.00,5.49\n");
}

TEST_F(CsvTest, EscapesSpecialCharacters)
{
    {
        CsvWriter w(path_);
        w.row({"a,b", "say \"hi\"", "line\nbreak", "plain"});
    }
    EXPECT_EQ(slurp(path_),
              "\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\",plain\n");
}

TEST(CsvEscape, OnlyQuotesWhenNeeded)
{
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("with space"), "with space");
    EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
}

// The library's never-exit contract (util/expected.hh): an
// unwritable path must not exit the process (the link check
// lint/fatal_link proves it statically). The error is sticky,
// rows are dropped, and close() surfaces the IoError.
TEST(CsvError, UnwritablePathSurfacesThroughClose)
{
    CsvWriter w("/nonexistent-dir-xyz/file.csv");
    EXPECT_FALSE(w.ok());
    w.header({"a", "b"});      // dropped, must not crash or exit
    w.row({"1", "2"});
    auto closed = w.close();
    ASSERT_FALSE(closed);
    EXPECT_EQ(closed.error().code, SolveErrorCode::IoError);
    EXPECT_NE(closed.error().describe().find("cannot open"),
              std::string::npos);
}

TEST(CsvError, CloseIsIdempotentAfterFailure)
{
    CsvWriter w("/nonexistent-dir-xyz/file.csv");
    EXPECT_FALSE(w.close());
    EXPECT_FALSE(w.close()); // the sticky error keeps reporting
}

TEST_F(CsvTest, OkReportsHealthyWriter)
{
    CsvWriter w(path_);
    EXPECT_TRUE(w.ok());
    w.row({"1"});
    EXPECT_TRUE(w.ok());
    EXPECT_TRUE(static_cast<bool>(w.close()));
}

} // namespace
} // namespace snoop
