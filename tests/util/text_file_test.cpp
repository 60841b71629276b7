#include "util/text_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace telea {
namespace {

std::filesystem::path scratch_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("telea_text_file_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(TextFile, MissingFileReadsAsNullopt) {
  const auto dir = scratch_dir("missing");
  EXPECT_FALSE(read_text_file((dir / "absent.jsonl").string()).has_value());
  // A directory opens on some systems but cannot be read as a file.
  EXPECT_FALSE(read_text_file(dir.string()).has_value());
}

TEST(TextFile, UnwritablePathWritesFalse) {
  const auto dir = scratch_dir("unwritable");
  const std::string path = (dir / "no_such_dir" / "out.json").string();
  EXPECT_FALSE(write_text_file(path, "{}\n"));
  EXPECT_FALSE(std::filesystem::exists(path));

  LineWriter writer;
  EXPECT_FALSE(writer.open(path));
  EXPECT_FALSE(writer.is_open());
  EXPECT_FALSE(writer.write_line("{}"));
}

TEST(TextFile, WriteThenReadIsByteExact) {
  const auto dir = scratch_dir("roundtrip");
  const std::string path = (dir / "bytes.bin").string();
  const std::string text("a\0b\r\nno trailing newline", 24);
  ASSERT_TRUE(write_text_file(path, text));
  EXPECT_EQ(read_text_file(path), text);
  // A second write replaces, never appends.
  ASSERT_TRUE(write_text_file(path, "x"));
  EXPECT_EQ(read_text_file(path), "x");
}

TEST(TextFile, LineWriterTruncatesOnOpenAndFlushesEachLine) {
  const auto dir = scratch_dir("lines");
  const std::string path = (dir / "stream.jsonl").string();
  ASSERT_TRUE(write_text_file(path, "{\"stale\":1}\n{\"stale\":2}\n"));
  {
    LineWriter writer;
    ASSERT_TRUE(writer.open(path));
    EXPECT_EQ(read_text_file(path), "");
    ASSERT_TRUE(writer.write_line("{\"t\":1}"));
    // Readable before the writer closes: a killed run keeps whole lines.
    EXPECT_EQ(read_text_file(path), "{\"t\":1}\n");
    ASSERT_TRUE(writer.write_line("{\"t\":2}"));
  }
  EXPECT_EQ(read_text_file(path), "{\"t\":1}\n{\"t\":2}\n");
}

TEST(JsonlObjects, YieldsObjectsAndCountsSkippedLines) {
  const std::string text =
      "{\"a\":1}\n"
      "\n"
      "   \t\r\n"
      "not json\n"
      "[1,2]\n"
      "{\"a\":2}\r\n"
      "{\"a\":3}";  // last line without a newline
  JsonlObjects lines(text);
  std::vector<double> seen;
  while (const auto doc = lines.next()) seen.push_back(doc->number_or("a", 0));
  EXPECT_EQ(seen, (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(lines.skipped(), 2u);  // "not json" and the array; blanks pass
  EXPECT_FALSE(lines.next().has_value());
}

}  // namespace
}  // namespace telea
