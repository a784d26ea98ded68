/** Unit tests for util/table. */

#include <gtest/gtest.h>

#include "util/table.hh"

namespace snoop {
namespace {

TEST(Table, RendersHeaderAndRows)
{
    Table t({"N", "speedup"});
    t.addRow({"4", "3.17"});
    t.addRow({"100", "6.07"});
    std::string out = t.render();
    EXPECT_NE(out.find("N"), std::string::npos);
    EXPECT_NE(out.find("speedup"), std::string::npos);
    EXPECT_NE(out.find("3.17"), std::string::npos);
    EXPECT_NE(out.find("6.07"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, RightAlignsByDefault)
{
    Table t({"col"});
    t.addRow({"1"});
    // width of "col" is 3, so "1" is padded to "  1"
    EXPECT_NE(t.render().find("|   1 |"), std::string::npos);
}

TEST(Table, LeftAlignWorks)
{
    Table t({"col"});
    t.setAlign(0, Align::Left);
    t.addRow({"1"});
    EXPECT_NE(t.render().find("| 1   |"), std::string::npos);
}

TEST(Table, CenterAlignPutsTheOddSpaceOnTheRight)
{
    Table t({"column"});
    t.setAlign(0, Align::Center);
    t.addRow({"ab"});
    t.addRow({"abc"});
    t.addRow({"—"}); // 3 bytes, 1 column
    std::string out = t.render();
    EXPECT_NE(out.find("|   ab   |"), std::string::npos);
    EXPECT_NE(out.find("|  abc   |"), std::string::npos);
    EXPECT_NE(out.find("|   —    |"), std::string::npos);
}

TEST(Table, TitleAppearsFirst)
{
    Table t({"a"});
    t.setTitle("Table 4.1(a)");
    t.addRow({"x"});
    std::string out = t.render();
    EXPECT_EQ(out.rfind("Table 4.1(a)\n", 0), 0u);
}

TEST(Table, SeparatorDoesNotCountAsRow)
{
    Table t({"a"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    EXPECT_EQ(t.numRows(), 2u);
    // three rules (top, under header, bottom) plus the separator
    std::string out = t.render();
    size_t rules = 0;
    for (size_t pos = 0; (pos = out.find("+--", pos)) != std::string::npos;
         ++pos) {
        ++rules;
    }
    EXPECT_EQ(rules, 4u);
}

TEST(Table, CsvOutputSkipsSeparators)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    t.addSeparator();
    t.addRow({"3", "4"});
    EXPECT_EQ(t.renderCsv(), "a,b\n1,2\n3,4\n");
}

TEST(TableDeath, WrongArityPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "addRow");
}

TEST(TableDeath, EmptyHeaderPanics)
{
    EXPECT_DEATH(Table t({}), "at least one column");
}

TEST(TableDeath, SetAlignOutOfRangePanics)
{
    Table t({"a"});
    EXPECT_DEATH(t.setAlign(1, Align::Left), "out of range");
}

} // namespace
} // namespace snoop
