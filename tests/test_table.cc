/**
 * @file
 * Unit tests for the table renderer.
 */

#include <gtest/gtest.h>

#include "stats/table.hh"

namespace limit::stats {
namespace {

TEST(Table, RenderContainsTitleHeaderAndCells)
{
    Table t("Demo");
    t.header({"method", "ns"});
    t.row({"pec", "37.1"});
    t.beginRow().cell("perf").cell(3402.0, 1);
    const std::string out = t.render();
    EXPECT_NE(out.find("== Demo =="), std::string::npos);
    EXPECT_NE(out.find("method"), std::string::npos);
    EXPECT_NE(out.find("pec"), std::string::npos);
    EXPECT_NE(out.find("3402.0"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, CellTypeFormatting)
{
    Table t("fmt");
    t.header({"a", "b", "c", "d"});
    t.beginRow()
        .cell(std::uint64_t{18446744073709551615ull})
        .cell(std::int64_t{-5})
        .cell(1.23456, 3)
        .cell("s");
    const std::string out = t.render();
    EXPECT_NE(out.find("18446744073709551615"), std::string::npos);
    EXPECT_NE(out.find("-5"), std::string::npos);
    EXPECT_NE(out.find("1.235"), std::string::npos);
}

TEST(TableDeathTest, RowWidthMismatchPanics)
{
    Table t("bad");
    t.header({"a", "b"});
    EXPECT_DEATH(t.row({"only-one"}), "row width");
}

TEST(Table, MarkdownRendersHeaderRuleAndRows)
{
    Table t("md");
    t.header({"method", "ns"});
    t.row({"pec", "37.1"});
    t.beginRow().cell("perf").cell(3402.0, 1);
    EXPECT_EQ(t.renderMarkdown(), "| method | ns |\n"
                                  "|---|---|\n"
                                  "| pec | 37.1 |\n"
                                  "| perf | 3402.0 |\n");
}

TEST(Table, MarkdownEscapesPipes)
{
    Table t("md");
    t.header({"x"});
    t.row({"a|b"});
    EXPECT_EQ(t.renderMarkdown(), "| x |\n|---|\n| a\\|b |\n");
}

TEST(Table, ImplicitRowCompletion)
{
    Table t("auto");
    t.header({"a", "b"});
    // Filling exactly header-width cells closes the row automatically.
    t.beginRow().cell(1).cell(2);
    t.beginRow().cell(3).cell(4);
    EXPECT_EQ(t.numRows(), 2u);
}

} // namespace
} // namespace limit::stats
