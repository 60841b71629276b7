#include "util/text_file.hpp"

namespace telea {

std::optional<std::string> read_text_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return text;
}

bool write_text_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

LineWriter::~LineWriter() { close(); }

void LineWriter::close() {
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

bool LineWriter::open(const std::string& path) {
  close();
  file_ = std::fopen(path.c_str(), "wb");
  return file_ != nullptr;
}

bool LineWriter::write_line(std::string_view line) {
  if (file_ == nullptr) return false;
  const bool ok =
      std::fwrite(line.data(), 1, line.size(), file_) == line.size() &&
      std::fputc('\n', file_) != EOF;
  return std::fflush(file_) == 0 && ok;
}

}  // namespace telea
