#include "dollymp/common/csv.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

namespace dollymp {
namespace {

TEST(Csv, ParseSimple) {
  const auto t = CsvTable::parse("a,b,c\n1,2,3\n4,5,6\n");
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cell(0, 0), "1");
  EXPECT_EQ(t.cell(1, 2), "6");
}

TEST(Csv, ParseNoTrailingNewline) {
  const auto t = CsvTable::parse("a,b\n1,2");
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cell(0, 1), "2");
}

TEST(Csv, ParseCrlf) {
  const auto t = CsvTable::parse("a,b\r\n1,2\r\n");
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cell(0, 0), "1");
}

TEST(Csv, QuotedFields) {
  const auto t = CsvTable::parse("name,note\n\"Smith, John\",\"said \"\"hi\"\"\"\n");
  EXPECT_EQ(t.cell(0, 0), "Smith, John");
  EXPECT_EQ(t.cell(0, 1), "said \"hi\"");
}

TEST(Csv, QuotedNewline) {
  const auto t = CsvTable::parse("a,b\n\"line1\nline2\",x\n");
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cell(0, 0), "line1\nline2");
}

TEST(Csv, EmptyFields) {
  const auto t = CsvTable::parse("a,b,c\n,,\n");
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cell(0, 0), "");
  EXPECT_EQ(t.cell(0, 2), "");
}

TEST(Csv, RaggedRowThrows) {
  EXPECT_THROW(CsvTable::parse("a,b\n1,2,3\n"), std::runtime_error);
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW(CsvTable::parse("a\n\"oops\n"), std::runtime_error);
}

TEST(Csv, ColumnLookup) {
  const auto t = CsvTable::parse("x,y\n7,8\n");
  EXPECT_EQ(t.column("y"), std::size_t{1});
  EXPECT_FALSE(t.column("z").has_value());
  EXPECT_EQ(t.cell(0, "x"), "7");
  EXPECT_THROW(t.cell(0, "z"), std::out_of_range);
}

TEST(Csv, TypedAccess) {
  const auto t = CsvTable::parse("d,i\n2.5,42\n");
  EXPECT_DOUBLE_EQ(t.cell_double(0, "d"), 2.5);
  EXPECT_EQ(t.cell_int(0, "i"), 42);
  EXPECT_THROW(t.cell_int(0, "d"), std::runtime_error);
}

TEST(Csv, TypedAccessErrorsNameRowAndField) {
  const auto t = CsvTable::parse("d,i\n2.5,42\nabc,x\n");
  try {
    (void)t.cell_int(1, "i");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "CSV: row 2, field 'i': cell 'x' is not an integer");
  }
  try {
    (void)t.cell_double(1, "d");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "CSV: row 2, field 'd': cell 'abc' is not a number");
  }
}

TEST(Csv, CellDoubleRejectsTrailingCharactersAndNonFinite) {
  const auto t = CsvTable::parse("d\n2.5abc\nnan\ninf\n-inf\n1e400\n\n1e3\n");
  const auto error_of = [&](std::size_t row) -> std::string {
    try {
      (void)t.cell_double(row, "d");
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(error_of(0), "CSV: row 1, field 'd': cell '2.5abc' is not a number");
  EXPECT_EQ(error_of(1), "CSV: row 2, field 'd': cell 'nan' is not a finite number");
  EXPECT_EQ(error_of(2), "CSV: row 3, field 'd': cell 'inf' is not a finite number");
  EXPECT_EQ(error_of(3), "CSV: row 4, field 'd': cell '-inf' is not a finite number");
  EXPECT_EQ(error_of(4), "CSV: row 5, field 'd': cell '1e400' is not a finite number");
  EXPECT_EQ(error_of(5), "CSV: row 6, field 'd': cell '' is not a number");
  EXPECT_EQ(t.cell_double(6, "d"), 1000.0);
}

TEST(Csv, WriterQuotesWhenNeeded) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_header({"a", "b"});
  w.write_row(std::string("x,y"), 3.25);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",3.25\n");
}

TEST(Csv, EscapeRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("multi\nline"), "\"multi\nline\"");
}

TEST(Csv, RoundTrip) {
  CsvTable t({"job", "value"});
  t.add_row({"wordcount, big", "1.5"});
  t.add_row({"plain", "2"});
  const auto parsed = CsvTable::parse(t.to_string());
  EXPECT_EQ(parsed.rows(), 2u);
  EXPECT_EQ(parsed.cell(0, 0), "wordcount, big");
  EXPECT_EQ(parsed.cell(1, "value"), "2");
}

TEST(Csv, AddRowWidthMismatchThrows) {
  CsvTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Csv, SaveAndLoad) {
  CsvTable t({"k", "v"});
  t.add_row({"x", "1"});
  const std::string path = testing::TempDir() + "/dollymp_csv_test.csv";
  t.save(path);
  const auto loaded = CsvTable::load(path);
  EXPECT_EQ(loaded.rows(), 1u);
  EXPECT_EQ(loaded.cell(0, "k"), "x");
  EXPECT_THROW(CsvTable::load("/nonexistent/nope.csv"), std::runtime_error);
}

}  // namespace
}  // namespace dollymp
