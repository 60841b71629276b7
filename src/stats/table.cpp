#include "stats/table.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdlib>

#include "util/json.hpp"
#include "util/text_file.hpp"

namespace telea {

std::string TextTable::fmt(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string TextTable::fmt_pct(double fraction, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

namespace {
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

std::string TextTable::render_csv() const {
  std::string out;
  auto emit = [&out](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out += ',';
      out += csv_field(cells[i]);
    }
    out += '\n';
  };
  emit(headers_);
  for (const auto& r : rows_) emit(r);
  return out;
}

bool TextTable::write_csv(const std::string& path) const {
  return write_text_file(path, render_csv());
}

namespace {

/// Renders a cell as a JSON value: numeric cells become numbers ("12.3%"
/// becomes 0.123), anything else a quoted string.
std::string json_cell(const std::string& s) {
  if (!s.empty()) {
    const char* begin = s.c_str();
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end != begin) {
      if (*end == '\0') {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%g", v);
        return buf;
      }
      if (end[0] == '%' && end[1] == '\0') {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%g", v / 100.0);
        return buf;
      }
    }
  }
  return "\"" + JsonValue::escape(s) + "\"";
}

}  // namespace

std::string TextTable::render_json(const std::string& name) const {
  std::string out = "{\"name\":\"" + JsonValue::escape(name) + "\",";
  out += "\"headers\":[";
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    if (i > 0) out += ',';
    out += "\"" + JsonValue::escape(headers_[i]) + "\"";
  }
  out += "],\"rows\":[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r > 0) out += ',';
    out += '{';
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      if (i > 0) out += ',';
      const std::string& cell =
          i < rows_[r].size() ? rows_[r][i] : std::string{};
      out += "\"" + JsonValue::escape(headers_[i]) + "\":" + json_cell(cell);
    }
    out += '}';
  }
  out += "]}\n";
  return out;
}

bool TextTable::write_json(const std::string& name,
                           const std::string& path) const {
  return write_text_file(path, render_json(name));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  auto fit = [&widths](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  fit(headers_);
  for (const auto& r : rows_) fit(r);

  std::string out;
  auto emit = [&out, &widths](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string{};
      out += "| ";
      out += c;
      out.append(widths[i] - c.size() + 1, ' ');
    }
    out += "|\n";
  };
  emit(headers_);
  for (std::size_t i = 0; i < widths.size(); ++i) {
    out += "|";
    out.append(widths[i] + 2, '-');
  }
  out += "|\n";
  for (const auto& r : rows_) emit(r);
  return out;
}

std::string sparkline(const std::vector<double>& values, std::size_t width) {
  if (values.empty() || width == 0) return {};
  static constexpr char kRamp[] = "_.:-=+*#@";
  static constexpr std::size_t kLevels = sizeof(kRamp) - 1;
  const std::size_t take = std::min(width, values.size());
  const std::size_t first = values.size() - take;
  double lo = values[first];
  double hi = values[first];
  for (std::size_t i = first; i < values.size(); ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  std::string out;
  out.reserve(take);
  for (std::size_t i = first; i < values.size(); ++i) {
    if (hi <= lo) {
      out.push_back('-');
      continue;
    }
    const double norm = (values[i] - lo) / (hi - lo);
    const auto level = static_cast<std::size_t>(
        norm * static_cast<double>(kLevels - 1) + 0.5);
    out.push_back(kRamp[std::min(level, kLevels - 1)]);
  }
  return out;
}

}  // namespace telea
