#include "bench_compare/compare.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <system_error>

#include "util/json.hpp"
#include "util/text_file.hpp"

namespace telea::benchcmp {

namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Renders a JSON cell as a row label: strings verbatim, numbers via %g so
/// "40" and 40 produce the same key on both sides.
std::string label_of(const JsonValue& cell) {
  if (cell.type() == JsonValue::Type::kString) return cell.as_string();
  if (cell.type() == JsonValue::Type::kNumber) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", cell.as_number());
    return buf;
  }
  return "";
}

double numeric_of(const JsonValue& cell) {
  if (cell.type() == JsonValue::Type::kNumber) return cell.as_number();
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

std::optional<Table> parse_table_json(std::string_view text) {
  const auto doc = JsonValue::parse(text);
  if (!doc.has_value() || doc->type() != JsonValue::Type::kObject) {
    return std::nullopt;
  }
  const JsonValue* headers = doc->find("headers");
  const JsonValue* rows = doc->find("rows");
  if (headers == nullptr || headers->type() != JsonValue::Type::kArray ||
      rows == nullptr || rows->type() != JsonValue::Type::kArray ||
      headers->as_array().empty()) {
    return std::nullopt;
  }
  Table table;
  table.name = doc->string_or("name", "");
  for (const JsonValue& h : headers->as_array()) {
    if (h.type() != JsonValue::Type::kString) return std::nullopt;
    table.headers.push_back(h.as_string());
  }
  for (const JsonValue& row : rows->as_array()) {
    if (row.type() != JsonValue::Type::kObject) return std::nullopt;
    const JsonValue* key_cell = row.find(table.headers.front());
    table.row_labels.push_back(key_cell != nullptr ? label_of(*key_cell) : "");
    std::vector<double> cells;
    cells.reserve(table.headers.size());
    for (const std::string& h : table.headers) {
      const JsonValue* cell = row.find(h);
      cells.push_back(cell != nullptr
                          ? numeric_of(*cell)
                          : std::numeric_limits<double>::quiet_NaN());
    }
    table.values.push_back(std::move(cells));
  }
  return table;
}

std::optional<Table> load_table_json(const std::string& path) {
  const auto text = read_text_file(path);
  if (!text.has_value()) return std::nullopt;
  return parse_table_json(*text);
}

bool lower_is_better(std::string_view header) {
  static const char* kNeedles[] = {"latency", "delay",  "duty", "p50",
                                   "p90",     "p99",    "tx",   "current",
                                   "energy",  "retries"};
  const std::string h = to_lower(header);
  for (const char* needle : kNeedles) {
    if (h.find(needle) != std::string::npos) return true;
  }
  return false;
}

void compare_tables(const Table& baseline, const Table& current,
                    const std::string& file, const CompareOptions& opts,
                    CompareReport& out) {
  ++out.files_compared;

  // Schema drift is reported once per table, not once per row. A removed
  // gated column is a hole in the gate (error); removed non-gated columns
  // and any column new in the current results are informational.
  for (std::size_t col = 1; col < baseline.headers.size(); ++col) {
    const std::string& header = baseline.headers[col];
    if (std::find(current.headers.begin(), current.headers.end(), header) !=
        current.headers.end()) {
      continue;
    }
    if (lower_is_better(header)) {
      out.errors.push_back(file + ": gated column '" + header +
                           "' missing from current results");
    } else {
      out.notes.push_back(file + ": column '" + header +
                          "' removed since the baseline");
    }
  }
  for (std::size_t col = 1; col < current.headers.size(); ++col) {
    const std::string& header = current.headers[col];
    if (std::find(baseline.headers.begin(), baseline.headers.end(), header) !=
        baseline.headers.end()) {
      continue;
    }
    out.notes.push_back(
        file + ": new column '" + header + "' has no baseline" +
        (lower_is_better(header) ? " — refresh baselines to gate it" : ""));
  }

  for (std::size_t row = 0; row < baseline.row_labels.size(); ++row) {
    const std::string& label = baseline.row_labels[row];
    const auto cur_row = std::find(current.row_labels.begin(),
                                   current.row_labels.end(), label);
    if (cur_row == current.row_labels.end()) {
      out.errors.push_back(file + ": row '" + label +
                           "' missing from current results");
      continue;
    }
    const std::size_t cur_idx =
        static_cast<std::size_t>(cur_row - current.row_labels.begin());
    for (std::size_t col = 1; col < baseline.headers.size(); ++col) {
      const std::string& header = baseline.headers[col];
      if (!lower_is_better(header)) continue;
      const double base = baseline.values[row][col];
      if (std::isnan(base) || base <= 0.0) continue;  // nothing to gate on
      const auto cur_col = std::find(current.headers.begin(),
                                     current.headers.end(), header);
      if (cur_col == current.headers.end()) {
        continue;  // already reported once at table level above
      }
      const double cur =
          current.values[cur_idx][static_cast<std::size_t>(
              cur_col - current.headers.begin())];
      if (std::isnan(cur)) {
        out.errors.push_back(file + ": row '" + label + "' column '" + header +
                             "' is not numeric in current results");
        continue;
      }
      ++out.cells_compared;
      const double change = (cur - base) / base;
      CellDelta delta{file, label, header, base, cur, change};
      if (change > opts.tolerance) {
        out.regressions.push_back(std::move(delta));
      } else if (change < -opts.tolerance) {
        out.improvements.push_back(std::move(delta));
      }
    }
  }
}

CompareReport compare_dirs(const std::string& baseline_dir,
                           const std::string& current_dir,
                           const CompareOptions& opts) {
  CompareReport report;
  std::error_code ec;
  std::vector<std::filesystem::path> baselines;
  for (const auto& entry :
       std::filesystem::directory_iterator(baseline_dir, ec)) {
    if (entry.path().extension() == ".json") {
      baselines.push_back(entry.path());
    }
  }
  if (ec) {
    report.errors.push_back("cannot read baseline dir " + baseline_dir);
    return report;
  }
  if (baselines.empty()) {
    report.errors.push_back("no *.json baselines in " + baseline_dir);
    return report;
  }
  std::sort(baselines.begin(), baselines.end());
  for (const auto& path : baselines) {
    const std::string stem = path.stem().string();
    const auto baseline = load_table_json(path.string());
    if (!baseline.has_value()) {
      report.errors.push_back(stem + ": baseline unreadable or malformed");
      continue;
    }
    const std::string cur_path =
        current_dir + "/" + path.filename().string();
    const auto current = load_table_json(cur_path);
    if (!current.has_value()) {
      report.errors.push_back(stem + ": no current result at " + cur_path);
      continue;
    }
    compare_tables(*baseline, *current, stem, opts, report);
  }

  // New result files with no baseline yet: visible but never gated.
  std::vector<std::filesystem::path> extras;
  for (const auto& entry :
       std::filesystem::directory_iterator(current_dir, ec)) {
    if (entry.path().extension() != ".json") continue;
    const auto is_baseline = [&entry](const std::filesystem::path& b) {
      return b.filename() == entry.path().filename();
    };
    if (std::none_of(baselines.begin(), baselines.end(), is_baseline)) {
      extras.push_back(entry.path());
    }
  }
  std::sort(extras.begin(), extras.end());
  for (const auto& extra : extras) {
    report.notes.push_back(extra.stem().string() +
                           ": new result without a baseline (not gated)");
  }
  return report;
}

std::string render_report(const CompareReport& report,
                          const CompareOptions& opts) {
  std::string out;
  char line[512];
  for (const CellDelta& d : report.regressions) {
    std::snprintf(line, sizeof line,
                  "REGRESSION %s [%s / %s]: %.4g -> %.4g (%+.1f%%, "
                  "tolerance %.0f%%)\n",
                  d.file.c_str(), d.row.c_str(), d.column.c_str(), d.baseline,
                  d.current, d.change * 100.0, opts.tolerance * 100.0);
    out += line;
  }
  for (const CellDelta& d : report.improvements) {
    std::snprintf(line, sizeof line,
                  "improved   %s [%s / %s]: %.4g -> %.4g (%+.1f%%) — "
                  "consider refreshing the baseline\n",
                  d.file.c_str(), d.row.c_str(), d.column.c_str(), d.baseline,
                  d.current, d.change * 100.0);
    out += line;
  }
  for (const std::string& e : report.errors) {
    out += "ERROR " + e + "\n";
  }
  for (const std::string& n : report.notes) {
    out += "note       " + n + "\n";
  }
  std::snprintf(line, sizeof line,
                "%zu file(s), %zu gated cell(s): %zu regression(s), "
                "%zu improvement(s), %zu error(s), %zu note(s)\n",
                report.files_compared, report.cells_compared,
                report.regressions.size(), report.improvements.size(),
                report.errors.size(), report.notes.size());
  out += line;
  return out;
}

}  // namespace telea::benchcmp
