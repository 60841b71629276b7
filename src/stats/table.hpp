#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace telea {

/// Fixed-width text table renderer for the benchmark binaries: prints the
/// same rows/series the paper's tables and figures report.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  TextTable& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  /// Renders with column widths fitted to content.
  [[nodiscard]] std::string render() const;

  void print() const { std::fputs(render().c_str(), stdout); }

  /// RFC-4180-style CSV rendering (quotes fields containing separators).
  [[nodiscard]] std::string render_csv() const;

  /// Writes the CSV rendering to `path`. Returns false on I/O failure.
  [[nodiscard]] bool write_csv(const std::string& path) const;

  /// Machine-readable JSON: {"name":...,"headers":[...],"rows":[{header:
  /// cell}...]}. Cells that parse fully as numbers (including "12.3%", which
  /// becomes the fraction 0.123) are emitted as JSON numbers; everything else
  /// stays a string. Parseable by JsonValue::parse.
  [[nodiscard]] std::string render_json(const std::string& name) const;

  /// Writes the JSON rendering to `path`. Returns false on I/O failure.
  [[nodiscard]] bool write_json(const std::string& name,
                                const std::string& path) const;

  static std::string fmt(double v, int decimals = 2);
  static std::string fmt_pct(double fraction, int decimals = 1);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// One-line ASCII sparkline of `values` (oldest first), min-max normalized
/// onto a single-byte character ramp — single-byte so it stays aligned as a
/// TextTable cell. At most `width` points are drawn (the newest); a flat
/// series renders as a run of '-', empty input as "".
[[nodiscard]] std::string sparkline(const std::vector<double>& values,
                                    std::size_t width = 32);

}  // namespace telea
