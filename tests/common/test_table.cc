/**
 * @file
 * Unit tests for the console table output helper.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/table.hh"

namespace tapas {
namespace {

TEST(ConsoleTable, AlignsColumns)
{
    ConsoleTable t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "2"});
    std::ostringstream out;
    t.print(out);
    const std::string text = out.str();
    // Header, rule, two rows.
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("longer-name"), std::string::npos);
    EXPECT_NE(text.find("----"), std::string::npos);
    // Both value cells must appear after aligned padding.
    const auto header_pos = text.find("value");
    const auto row_pos = text.find("2");
    EXPECT_LT(header_pos, row_pos);
}

TEST(ConsoleTable, NumFormatting)
{
    EXPECT_EQ(ConsoleTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(ConsoleTable::num(2.0, 0), "2");
    EXPECT_EQ(ConsoleTable::pct(0.231, 1), "23.1%");
    EXPECT_EQ(ConsoleTable::pct(1.0, 0), "100%");
}

} // namespace
} // namespace tapas
