#include <gtest/gtest.h>

#include "dollymp/common/table.h"

namespace dollymp {
namespace {

TEST(ConsoleTable, RendersAlignedColumns) {
  ConsoleTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(ConsoleTable, RowWidthMismatchThrows) {
  ConsoleTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"x"}), std::invalid_argument);
  EXPECT_THROW(ConsoleTable({}), std::invalid_argument);
}

TEST(ConsoleTable, ValueRows) {
  ConsoleTable t({"x", "y"});
  t.add_row_values({1.234, 5.678}, 1);
  t.add_labeled_row("row", {9.0}, 0);
  EXPECT_EQ(t.rows(), 2u);
  const std::string out = t.render();
  EXPECT_NE(out.find("1.2"), std::string::npos);
  EXPECT_NE(out.find("row"), std::string::npos);
}

TEST(ConsoleTable, FormatDouble) {
  EXPECT_EQ(ConsoleTable::format_double(3.14159, 2), "3.14");
  EXPECT_EQ(ConsoleTable::format_double(2.0, 0), "2");
}

TEST(ConsoleTable, CaptionedRender) {
  ConsoleTable t({"a"});
  t.add_row({"1"});
  const std::string out = t.render("My caption");
  EXPECT_NE(out.find("My caption"), std::string::npos);
}

TEST(Banner, ContainsTitle) {
  EXPECT_NE(banner("Fig 4").find("Fig 4"), std::string::npos);
}

}  // namespace
}  // namespace dollymp
