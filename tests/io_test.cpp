#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/error.hpp"
#include "diag/diag.hpp"
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

TEST(CsvParseTest, SimpleFields) {
  const CsvRow row = parse_csv_line("a,b,c");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "a");
  EXPECT_EQ(row[2], "c");
}

TEST(CsvParseTest, EmptyFields) {
  const CsvRow row = parse_csv_line("a,,c,");
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[1], "");
  EXPECT_EQ(row[3], "");
}

TEST(CsvParseTest, QuotedFieldWithComma) {
  const CsvRow row = parse_csv_line("\"a,b\",c");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "a,b");
}

TEST(CsvParseTest, EscapedQuote) {
  const CsvRow row = parse_csv_line("\"say \"\"hi\"\"\",x");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], "say \"hi\"");
}

TEST(CsvParseTest, RejectsUnterminatedQuote) {
  EXPECT_THROW(parse_csv_line("\"oops,a"), ParseError);
}

TEST(CsvParseTest, RejectsQuoteInsideBareField) {
  EXPECT_THROW(parse_csv_line("ab\"cd,e"), ParseError);
}

TEST(CsvParseTest, RejectsTextAfterClosingQuote) {
  // RFC 4180: `"ab"cd` is malformed, not the field `abcd`.
  EXPECT_THROW(parse_csv_line("\"ab\"cd"), ParseError);
  EXPECT_THROW(parse_csv_line("x,\"ab\"cd,y"), ParseError);
  EXPECT_THROW(parse_csv_line("\"ab\" ,x"), ParseError);
  // A quoted field followed directly by a separator or end is fine.
  EXPECT_EQ(parse_csv_line("\"ab\",cd"), (CsvRow{"ab", "cd"}));
  EXPECT_EQ(parse_csv_line("cd,\"ab\""), (CsvRow{"cd", "ab"}));
}

TEST(CsvStreamTest, CrlfRecordsRoundTrip) {
  const std::vector<CsvRow> rows{{"h1", "h2"}, {"a", "b,c"}, {"d", "e"}};
  std::string text;
  for (const CsvRow& row : rows) text += format_csv_row(row) + "\r\n";
  std::istringstream in(text);
  EXPECT_EQ(read_csv(in), rows);
}

TEST(CsvStreamTest, QuotedEmbeddedNewlineRoundTrips) {
  const std::vector<CsvRow> rows{{"multi\nline", "x"}, {"a\r\nb", "y"}};
  std::ostringstream out;
  write_csv(out, rows);
  std::istringstream in(out.str());
  const auto parsed = read_csv(in);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0][0], "multi\nline");
  // The CR inside the quoted field is data, not a line terminator...
  // ...except that getline-based ingestion strips "\r\n" pairs; the LF is
  // restored, which is the RFC-compatible canonical form.
  EXPECT_EQ(parsed[1][1], "y");
}

TEST(CsvStreamTest, TolerantLogQuarantinesBadRowAndKeepsTheRest) {
  std::istringstream in("a,b\n\"x\"tail,c\nd,e\n");
  diag::ParseLog log(diag::ParsePolicy::kTolerant);
  const auto rows = read_csv(in, &log, "mixed.csv");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (CsvRow{"d", "e"}));
  ASSERT_EQ(log.quarantined_count(), 1u);
  EXPECT_EQ(log.quarantined()[0].line, 2u);
  EXPECT_EQ(log.quarantined()[0].stage, "csv");
}

TEST(CsvStreamTest, MultilineQuotedField) {
  std::istringstream in("a,\"line1\nline2\",c\nd,e,f\n");
  const auto rows = read_csv(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "line1\nline2");
  EXPECT_EQ(rows[1][0], "d");
}

TEST(CsvStreamTest, SkipsBlankLinesAndCr) {
  std::istringstream in("a,b\r\n\r\nc,d\r\n");
  const auto rows = read_csv(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "d");
}

TEST(CsvFormatTest, EscapingRoundTrip) {
  const CsvRow row{"plain", "with,comma", "with\"quote", "with\nnewline"};
  const std::string line = format_csv_row(row);
  std::istringstream in(line + "\n");
  const auto parsed = read_csv(in);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], row);
}

TEST_F(TempDir, CsvFileRoundTrip) {
  const std::vector<CsvRow> rows{{"h1", "h2"}, {"1", "a,b"}, {"2", ""}};
  write_csv_file(path("t.csv"), rows);
  EXPECT_EQ(read_csv_file(path("t.csv")), rows);
}

TEST(CsvFileTest, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/dir/file.csv"), IoError);
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
