#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

namespace telea {

/// The one file I/O path for every artifact the simulator, its tools and
/// its benches read or write: whole-file reads, whole-file writes, and the
/// line streams (trace-style JSONL) that grow while a run is in progress.

/// The whole of `path`, byte for byte. Nullopt when it cannot be opened or
/// read (missing file, directory, no permission).
[[nodiscard]] std::optional<std::string> read_text_file(
    const std::string& path);

/// Replaces the contents of `path` with `text`. False when the file cannot
/// be opened, or the write or the close fails.
[[nodiscard]] bool write_text_file(const std::string& path,
                                   std::string_view text);

/// A line stream into one file. open() truncates, so a second run into the
/// same path holds only that run's lines; each write_line() adds `line` and
/// '\n' and flushes, so a killed run still leaves whole lines; the
/// destructor closes the file.
class LineWriter {
 public:
  LineWriter() = default;
  ~LineWriter();
  LineWriter(const LineWriter&) = delete;
  LineWriter& operator=(const LineWriter&) = delete;

  /// Opens `path` for writing, truncating it, and closes any file this
  /// writer had open. False when it cannot be opened.
  bool open(const std::string& path);
  [[nodiscard]] bool is_open() const noexcept { return file_ != nullptr; }

  /// Writes `line` and '\n', then flushes. False when no file is open or
  /// the write fails.
  bool write_line(std::string_view line);

 private:
  void close();

  std::FILE* file_ = nullptr;
};

}  // namespace telea
