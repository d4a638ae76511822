#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/error.hpp"
#include "io/csv.hpp"
#include "io/file.hpp"
#include "io/table.hpp"

namespace cosmicdance::io {
namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cd_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST(CsvFormatTest, EscapingRoundTrip) {
  // A field is quoted when it holds a separator, a quote, CR or LF, and
  // every quote inside is doubled; anything else is written as is.
  const CsvRow row{"plain", "with,comma", "with\"quote", "with\nnewline",
                   "with\rreturn", "trailing return\r", "crlf\r\ninside", ""};
  EXPECT_EQ(format_csv_row(row),
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\","
            "\"with\rreturn\",\"trailing return\r\",\"crlf\r\ninside\",");
  EXPECT_EQ(escape_csv_field("\"\""), "\"\"\"\"\"\"");
  EXPECT_EQ(format_csv_row({}), "");
  EXPECT_EQ(format_csv_row({""}), "");
}

TEST_F(TempDir, CsvFileRoundTrip) {
  const std::vector<CsvRow> rows{
      {"h1", "h2"}, {"1", "a,b"}, {"2", ""}, {"multi\nline", "a\r\nb"}};
  write_csv_file(path("t.csv"), rows);
  EXPECT_EQ(read_file(path("t.csv")),
            "h1,h2\n1,\"a,b\"\n2,\n\"multi\nline\",\"a\r\nb\"\n");
  std::ostringstream out;
  write_csv(out, rows);
  EXPECT_EQ(out.str(), read_file(path("t.csv")));
}

TEST(CsvFileTest, MissingFileThrows) {
  EXPECT_THROW(write_csv_file("/nonexistent/dir/file.csv", {}), IoError);
}

TEST_F(TempDir, FileHelpersRoundTrip) {
  write_file(path("f.txt"), "hello\nworld\n");
  EXPECT_EQ(read_file(path("f.txt")), "hello\nworld\n");
}

TEST(FileTest, MissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/file"), IoError);
}

TEST(TableTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer-name", "2.5"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer-name"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TableTest, PadsShortRows) {
  TablePrinter table({"a", "b", "c"});
  EXPECT_NO_THROW(table.add_row({"1"}));
  EXPECT_THROW(table.add_row({"1", "2", "3", "4"}), ValidationError);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(TablePrinter::num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::num(-0.5, 1), "-0.5");
  EXPECT_EQ(TablePrinter::num(3.0, 0), "3");
}

TEST(TableTest, HeadingFormat) {
  std::ostringstream out;
  print_heading(out, "Fig 1");
  EXPECT_EQ(out.str(), "\n== Fig 1 ==\n");
}

}  // namespace
}  // namespace cosmicdance::io
