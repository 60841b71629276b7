#include "telea_lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace telea::lint {

namespace fs = std::filesystem;

namespace {

constexpr std::size_t npos = std::string::npos;

// --- what the rules scan ----------------------------------------------------

const char* const kObservabilityDoc = "docs/OBSERVABILITY.md";
const std::vector<std::string> kMetricScanDirs = {"src", "tools"};
// trace-docs: where TraceEvent lives and its name mapping.
const char* const kTraceHeader = "src/stats/trace.hpp";
const char* const kTraceSource = "src/stats/trace.cpp";
const std::vector<std::string> kRngScanDirs = {"src", "examples", "bench",
                                               "tools"};
const std::vector<std::string> kRngExempt = {"src/util/rng.hpp",
                                             "src/util/rng.cpp"};
const std::vector<std::string> kFieldScanDirs = {"src/proto", "src/net",
                                                 "src/core"};

/// One layer of the intended src/ dependency DAG: files under
/// src/<dir> may include src/<dir> itself plus src/<d> for d in deps.
struct LayerSpec {
  std::string dir;
  std::vector<std::string> deps;
};

// The realized architecture (docs/STATIC_ANALYSIS.md carries the diagram):
// util and sim are foundations; radio sits on them; stats (trace/metrics) is
// observability plumbing below every protocol layer; mac, then net, then the
// TeleAdjusting core and the baseline protos; check audits core state;
// harness composes everything. tools/tests/examples/bench may depend on
// anything — nothing in src/ may depend on them.
const std::vector<LayerSpec> kLayers = {
    {"util", {}},
    {"sim", {"util"}},
    {"radio", {"util", "sim"}},
    {"topo", {"util", "sim", "radio"}},
    {"stats", {"util", "sim", "radio"}},
    {"mac", {"util", "sim", "radio", "stats"}},
    {"net", {"util", "sim", "radio", "stats", "mac"}},
    {"proto", {"util", "sim", "radio", "stats", "mac", "net"}},
    {"core", {"util", "sim", "radio", "stats", "mac", "net"}},
    {"check", {"util", "sim", "radio", "stats", "mac", "net", "core"}},
    {"harness",
     {"util", "sim", "radio", "stats", "mac", "net", "proto", "core", "check",
      "topo"}},
};
const char* const kLayeringRoot = "src";  // the tree the DAG governs

/// One serialize/parse pair under the wire-format rule: the JSON keys the
/// writer emits versus the keys the reader consumes. The reader's keys must
/// always be a subset of the writer's (a key read but never written is a
/// silent-default bug); `strict` additionally requires the writer's keys to
/// all be read back (a full round-trip codec).
struct SerdeSpec {
  const char* name;  // for messages, e.g. "trace-jsonl"
  const char* writer_file;
  const char* writer_fn;
  const char* reader_file;
  const char* reader_fn;
  bool strict;
};

const SerdeSpec kSerdePairs[] = {
    // The trace stream is a full round-trip codec: telea_report and the span
    // engine reload exactly what the tracer wrote.
    {"trace-jsonl", "src/stats/trace.cpp", "append_trace_record_json",
     "src/stats/trace.cpp", "trace_record_from_json", /*strict=*/true},
    // Snapshot/report renderers feed readers that may ignore informational
    // keys, but must never read a key the writer does not emit.
    {"health-snapshot", "src/stats/health.cpp", "render_snapshot_json",
     "tools/telea_top.cpp", "render_snapshot", /*strict=*/false},
    {"flight-dump", "src/stats/trace.cpp", "render_flight_dump_json",
     "tools/telea_top.cpp", "render_flight_file", /*strict=*/false},
};

// --- text helpers -----------------------------------------------------------

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t skip_space(std::string_view text, std::size_t i) {
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i])) != 0) {
    ++i;
  }
  return i;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

std::size_t line_of(std::string_view text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(), text.begin() + static_cast<long>(pos),
                            '\n'));
}

bool has_cxx_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

/// Every .cpp/.hpp under root/<dir> for each scan dir, root-relative, sorted
/// for deterministic output. Skips anything under a directory named "build".
std::vector<std::string> collect_sources(const fs::path& root,
                                         const std::vector<std::string>& dirs) {
  std::vector<std::string> files;
  for (const std::string& dir : dirs) {
    const fs::path base = root / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (fs::recursive_directory_iterator it(base, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_directory() && it->path().filename() == "build") {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file() || !has_cxx_extension(it->path())) continue;
      files.push_back(fs::relative(it->path(), root).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool contains(const std::vector<std::string>& list, const std::string& s) {
  return std::find(list.begin(), list.end(), s) != list.end();
}

/// First occurrence of `word` in `text` at word boundaries, from `from`.
std::size_t find_word(std::string_view text, std::string_view word,
                      std::size_t from = 0) {
  for (std::size_t pos = text.find(word, from); pos != npos;
       pos = text.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || !is_word(text[pos - 1]);
    const std::size_t after = pos + word.size();
    const bool right_ok = after >= text.size() || !is_word(text[after]);
    if (left_ok && right_ok) return pos;
  }
  return npos;
}

/// Index of the bracket closing the one at `open` (same nesting level), or
/// npos. Run it on stripped text so brackets in literals do not count.
std::size_t matching_close(std::string_view text, std::size_t open) {
  const char o = text[open];
  const char c = o == '(' ? ')' : '}';
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == o) ++depth;
    if (text[i] == c && --depth == 0) return i;
  }
  return npos;
}

/// Blanks comments, and string/char literal contents too when
/// `blank_literals`, keeping every newline and every quote character.
std::string blank_comments(std::string_view src, bool blank_literals) {
  std::string out(src);
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
  } state = State::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = ' ';
        } else if (c == '"') {
          state = State::kString;  // keep the quote: call shapes survive
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\') {
          if (blank_literals) {
            out[i] = ' ';
            if (next != '\n' && i + 1 < out.size()) out[i + 1] = ' ';
          }
          if (next != '\n') ++i;  // skip the escaped character
        } else if (c == (state == State::kString ? '"' : '\'')) {
          state = State::kCode;
        } else if (c != '\n' && blank_literals) {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

}  // namespace

std::string strip_comments_and_strings(std::string_view src) {
  return blank_comments(src, /*blank_literals=*/true);
}

// ---------------------------------------------------------------------------
// metric-docs
// ---------------------------------------------------------------------------

std::vector<Finding> check_metric_docs(const fs::path& root) {
  std::vector<Finding> findings;
  const std::string doc = read_file(root / kObservabilityDoc);
  if (doc.empty()) {
    findings.push_back(
        {kObservabilityDoc, 0, "metric-docs", "metrics document missing"});
    return findings;
  }
  // First registered occurrence of every metric literal, for the report.
  std::set<std::string> reported;
  static const char* kCalls[] = {".describe(", ".counter(", ".gauge(",
                                 ".histogram("};
  for (const std::string& file : collect_sources(root, kMetricScanDirs)) {
    const std::string raw = read_file(root / file);
    for (const char* call : kCalls) {
      for (std::size_t pos = raw.find(call); pos != npos;
           pos = raw.find(call, pos + 1)) {
        const std::size_t i =
            skip_space(raw, pos + std::string_view(call).size());
        if (i >= raw.size() || raw[i] != '"') continue;  // non-literal name
        const std::size_t end = raw.find('"', i + 1);
        if (end == npos) continue;
        const std::string name = raw.substr(i + 1, end - i - 1);
        if (name.rfind("telea_", 0) != 0) continue;
        if (!reported.insert(name).second) continue;
        if (doc.find(name) == npos) {
          Finding f{file, line_of(raw, pos), "metric-docs",
                    "metric " + name + " is not documented in " +
                        kObservabilityDoc};
          f.fix_kind = "insert-metric-doc";
          f.fix_args = {kObservabilityDoc, name};
          findings.push_back(std::move(f));
        }
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// trace-docs
// ---------------------------------------------------------------------------

std::vector<Finding> check_trace_docs(const fs::path& root) {
  std::vector<Finding> findings;
  // -Werror=switch keeps trace_event_name()'s switch complete, so its
  // `case TraceEvent::kX: return "x";` pairs are the full event list. Labels
  // come from the stripped source (commented-out cases do not count); the
  // name literals from the raw text at the same offsets.
  const std::string raw = read_file(root / kTraceSource);
  const std::string source = strip_comments_and_strings(raw);
  std::vector<std::pair<std::string, std::string>> events;  // enumerator,name
  std::set<std::string> seen;
  const std::string_view label = "case TraceEvent::";
  for (std::size_t pos = source.find(label); pos != npos;
       pos = source.find(label, pos + 1)) {
    const std::size_t start = pos + label.size();
    std::size_t i = start;
    while (i < source.size() && is_word(source[i])) ++i;
    const std::string enumerator = source.substr(start, i - start);
    i = skip_space(source, i);
    if (i >= source.size() || source[i] != ':') continue;
    i = skip_space(source, i + 1);
    if (find_word(source, "return", i) != i) continue;
    i = skip_space(source, i + 6);
    if (i >= source.size() || source[i] != '"') continue;
    const std::size_t close = raw.find('"', i + 1);
    if (close == npos || !seen.insert(enumerator).second) continue;
    events.emplace_back(enumerator, raw.substr(i + 1, close - i - 1));
  }
  if (events.empty()) {
    findings.push_back({kTraceSource, 0, "trace-docs",
                        "no `case TraceEvent::...: return \"...\"` name "
                        "mapping found"});
    return findings;
  }

  const std::string doc = read_file(root / kObservabilityDoc);
  if (doc.empty()) {
    findings.push_back(
        {kObservabilityDoc, 0, "trace-docs", "trace document missing"});
    return findings;
  }
  // The event table: starts at the markdown header row "| event ..."; rows
  // are every following line beginning with '|'. Documented names are the
  // backticked tokens of each row's first column (a cell may hold several,
  // e.g. `kill` / `revive`).
  std::map<std::string, std::size_t> documented;  // name -> doc line
  const std::size_t table = doc.find("\n| event");
  if (table == npos) {
    findings.push_back({kObservabilityDoc, 0, "trace-docs",
                        "event table (header row '| event ...') not found"});
    return findings;
  }
  std::size_t pos = doc.find('\n', table + 1);
  while (pos != npos && pos + 1 < doc.size() && doc[pos + 1] == '|') {
    const std::size_t eol = doc.find('\n', pos + 1);
    const std::string_view line = std::string_view(doc).substr(
        pos + 1, eol == npos ? npos : eol - pos - 1);
    const std::size_t cell_end = line.find('|', 1);
    const std::string_view cell =
        line.substr(1, cell_end == npos ? npos : cell_end - 1);
    for (std::size_t tick = cell.find('`'); tick != npos;
         tick = cell.find('`', tick + 1)) {
      const std::size_t end = cell.find('`', tick + 1);
      if (end == npos) break;
      const std::string token(cell.substr(tick + 1, end - tick - 1));
      if (!token.empty()) documented.emplace(token, line_of(doc, pos + 1));
      tick = end;
    }
    pos = eol;
  }

  const std::string header = read_file(root / kTraceHeader);
  std::set<std::string> known;
  for (const auto& [enumerator, name] : events) {
    known.insert(name);
    if (documented.contains(name)) continue;
    const std::size_t at = find_word(header, enumerator);
    Finding f{kTraceHeader, at == npos ? 0 : line_of(header, at), "trace-docs",
              "TraceEvent::" + enumerator + " (\"" + name +
                  "\") is missing from the event table in " +
                  kObservabilityDoc};
    f.fix_kind = "insert-doc-row";
    f.fix_args = {kObservabilityDoc, name};
    findings.push_back(std::move(f));
  }
  for (const auto& [token, line] : documented) {
    if (!known.contains(token)) {
      findings.push_back(
          {kObservabilityDoc, line, "trace-docs",
           "event table lists `" + token +
               "` which is not a TraceEvent name string — stale doc row?"});
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

std::vector<Finding> check_rng_discipline(const fs::path& root) {
  std::vector<Finding> findings;
  static const struct {
    const char* token;
    const char* why;
  } kBans[] = {
      {"std::random_device", "non-deterministic entropy source"},
      {"random_device", "non-deterministic entropy source"},
      {"rand", "unseeded C RNG"},
      {"srand", "unseeded C RNG"},
      {"time", "wall-clock entropy"},
  };
  for (const std::string& file : collect_sources(root, kRngScanDirs)) {
    if (contains(kRngExempt, file)) continue;
    const std::string text = strip_comments_and_strings(read_file(root / file));
    for (const auto& ban : kBans) {
      const std::string_view token = ban.token;
      for (std::size_t pos = find_word(text, token); pos != npos;
           pos = find_word(text, token, pos + 1)) {
        // Only *calls* are entropy: require an open paren after the token
        // (so SimTime fields named `time` and the like stay legal).
        const std::size_t i = skip_space(text, pos + token.size());
        if (i >= text.size() || text[i] != '(') continue;
        // Qualified names other than std:: (e.g. sim.time(...)) are member
        // calls on our own types, not libc.
        if (pos >= 1 && (text[pos - 1] == '.' || text[pos - 1] == '>')) {
          continue;
        }
        if (pos >= 2 && text[pos - 1] == ':' && text[pos - 2] == ':') {
          const std::size_t qual_end = pos - 2;
          std::size_t qual_start = qual_end;
          while (qual_start > 0 && is_word(text[qual_start - 1])) --qual_start;
          if (text.substr(qual_start, qual_end - qual_start) != "std") {
            continue;
          }
        }
        findings.push_back(
            {file, line_of(text, pos), "rng",
             std::string(token) + "() is banned (" + ban.why +
                 "); derive randomness from the seeded sim RNG "
                 "(src/util/rng.hpp) instead"});
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// field-width
// ---------------------------------------------------------------------------

std::vector<Finding> check_field_widths(const fs::path& root) {
  std::vector<Finding> findings;
  static const char* kCasts[] = {"static_cast<std::uint8_t>",
                                 "static_cast<std::uint16_t>",
                                 "static_cast<uint8_t>",
                                 "static_cast<uint16_t>"};
  for (const std::string& file : collect_sources(root, kFieldScanDirs)) {
    const std::string text = strip_comments_and_strings(read_file(root / file));
    for (const char* cast : kCasts) {
      for (std::size_t pos = text.find(cast); pos != npos;
           pos = text.find(cast, pos + 1)) {
        findings.push_back(
            {file, line_of(text, pos), "field-width",
             std::string(cast) + " narrows a packet field unchecked; use "
                                 "telea::field::u8/u16 (saturating) or "
                                 "wrap_u8/wrap_u16 (modular) from "
                                 "util/field.hpp"});
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

namespace {

/// The directory component `n` (0-based) of a root-relative path:
/// ("src/net/x.hpp", 1) -> "net". Empty when the path has no such component.
std::string component(std::string_view path, int n) {
  std::size_t begin = 0;
  for (int i = 0; i < n; ++i) {
    begin = path.find('/', begin);
    if (begin == npos) return {};
    ++begin;
  }
  const std::size_t end = path.find('/', begin);
  return std::string(path.substr(begin, end == npos ? npos : end - begin));
}

struct QuotedInclude {
  std::string target;
  std::size_t line;
};

/// Every `#include "..."` directive outside comments; system (<...>)
/// includes are outside the DAG and skipped.
std::vector<QuotedInclude> quoted_includes(const std::string& raw) {
  const std::string text = strip_comments_and_strings(raw);
  std::vector<QuotedInclude> out;
  std::size_t line = 1;
  for (std::size_t bol = 0; bol < text.size(); ++line) {
    std::size_t eol = text.find('\n', bol);
    if (eol == npos) eol = text.size();
    const std::string_view l = std::string_view(text).substr(bol, eol - bol);
    std::size_t i = skip_space(l, 0);
    if (i < l.size() && l[i] == '#') {
      i = skip_space(l, i + 1);
      if (find_word(l, "include", i) == i) {
        i = skip_space(l, i + 7);
        const std::size_t close = i < l.size() && l[i] == '"'
                                      ? raw.find('"', bol + i + 1)
                                      : npos;
        if (close < eol) {
          out.push_back({raw.substr(bol + i + 1, close - bol - i - 1), line});
        }
      }
    }
    bol = eol + 1;
  }
  return out;
}

/// Which tree a quoted include lands in: targets resolve against root/src
/// first (the include dir every src target exports), then tools/, then
/// tests/, then the repo root.
struct ResolvedInclude {
  std::string tree;  // "src" | "tools" | "tests" | "" (not a project header)
  std::string path;  // root-relative path when resolved
};

ResolvedInclude resolve_include(const fs::path& root,
                                const std::string& target) {
  static const char* kTrees[] = {"src", "tools", "tests"};
  std::error_code ec;
  for (const char* tree : kTrees) {
    if (fs::exists(root / tree / target, ec)) {
      return {tree, std::string(tree) + "/" + target};
    }
  }
  if (fs::exists(root / target, ec)) return {component(target, 0), target};
  return {};
}

}  // namespace

std::vector<Finding> check_layering(const fs::path& root) {
  std::vector<Finding> findings;
  std::map<std::string, const LayerSpec*> layer_of;
  for (const LayerSpec& l : kLayers) layer_of[l.dir] = &l;

  // File-level include graph over the governed tree, for cycle detection.
  std::map<std::string, std::vector<std::string>> graph;

  const std::string prefix = std::string(kLayeringRoot) + "/";
  for (const std::string& path : collect_sources(root, {kLayeringRoot})) {
    const std::string dir = component(path, 1);
    const auto layer = layer_of.find(dir);
    if (layer == layer_of.end()) {
      findings.push_back(
          {path, 0, "layering",
           "directory " + prefix + dir +
               " is not in the layering spec — add it to the DAG in "
               "docs/STATIC_ANALYSIS.md and the lint layer table"});
      continue;
    }
    for (const QuotedInclude& inc : quoted_includes(read_file(root / path))) {
      const ResolvedInclude res = resolve_include(root, inc.target);
      if (res.tree.empty()) continue;  // not a project header
      if (res.tree != kLayeringRoot) {
        findings.push_back(
            {path, inc.line, "layering",
             "include chain " + path + " -> " + res.path + ": " + prefix +
                 dir + " must not depend on " + res.tree +
                 "/ (nothing in " + prefix + " may depend on tools or tests)"});
        continue;
      }
      const std::string dep_dir = component(res.path, 1);
      graph[path].push_back(res.path);
      if (dep_dir == dir) continue;
      const std::vector<std::string>& allowed = layer->second->deps;
      if (!contains(allowed, dep_dir)) {
        std::string allowed_list;
        for (const std::string& a : allowed) {
          if (!allowed_list.empty()) allowed_list += ", ";
          allowed_list += a;
        }
        findings.push_back(
            {path, inc.line, "layering",
             "include chain " + path + " -> " + res.path + ": layer '" + dir +
                 "' may only depend on {" +
                 (allowed_list.empty() ? "nothing" : allowed_list) +
                 "} — this edge inverts the intended DAG"});
      }
    }
  }

  // Cycle detection (iterative DFS, three colors). Each cycle is reported
  // once, keyed by its member set, with the full include chain printed.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::set<std::set<std::string>> seen_cycles;
  std::vector<std::string> stack;

  struct StackFrame {
    std::string node;
    std::size_t next = 0;
  };
  for (const auto& [start, _] : graph) {
    if (color[start] != 0) continue;
    std::vector<StackFrame> dfs;
    dfs.push_back({start, 0});
    color[start] = 1;
    stack.push_back(start);
    while (!dfs.empty()) {
      StackFrame& frame = dfs.back();
      const auto it = graph.find(frame.node);
      if (it == graph.end() || frame.next >= it->second.size()) {
        color[frame.node] = 2;
        stack.pop_back();
        dfs.pop_back();
        continue;
      }
      const std::string& next = it->second[frame.next++];
      if (color[next] == 1) {
        // Back edge: the cycle is the stack suffix from `next`.
        const auto at = std::find(stack.begin(), stack.end(), next);
        std::set<std::string> members(at, stack.end());
        if (seen_cycles.insert(members).second) {
          std::string chain;
          for (auto m = at; m != stack.end(); ++m) chain += *m + " -> ";
          chain += next;
          findings.push_back(
              {next, 0, "layering",
               "include cycle: " + chain +
                   " — break the cycle with a forward declaration or by "
                   "moving the shared type down a layer"});
        }
        continue;
      }
      if (color[next] == 0) {
        color[next] = 1;
        stack.push_back(next);
        dfs.push_back({next, 0});
      }
    }
  }

  return findings;
}

// ---------------------------------------------------------------------------
// wire-format (serialize/parse pairs)
// ---------------------------------------------------------------------------

namespace {

/// The body of the first definition of function `name` in stripped `text`:
/// `name (...) [const|noexcept|override|final]* {...}`. `begin`/`end` span
/// the braces; `line` is the line of the name.
struct FunctionBody {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t line = 0;
};

std::optional<FunctionBody> find_function_body(std::string_view text,
                                               std::string_view name) {
  static const char* kSpecifiers[] = {"const", "noexcept", "override",
                                      "final"};
  for (std::size_t pos = find_word(text, name); pos != npos;
       pos = find_word(text, name, pos + 1)) {
    std::size_t i = skip_space(text, pos + name.size());
    if (i >= text.size() || text[i] != '(') continue;
    const std::size_t params_end = matching_close(text, i);
    if (params_end == npos) continue;
    i = skip_space(text, params_end + 1);
    for (bool more = true; more;) {
      more = false;
      for (const std::string_view spec : kSpecifiers) {
        if (find_word(text, spec, i) == i) {
          i = skip_space(text, i + spec.size());
          more = true;
        }
      }
    }
    if (i >= text.size() || text[i] != '{') continue;  // a call or declaration
    const std::size_t close = matching_close(text, i);
    if (close == npos) continue;
    return FunctionBody{i, close + 1, line_of(text, pos)};
  }
  return std::nullopt;
}

/// JSON keys a writer emits: every `\"key\":` sequence in the body's string
/// literals (the writers build escaped JSON text). `code` is the source with
/// only its comments blanked.
std::set<std::string> writer_keys(std::string_view code,
                                  const FunctionBody& fn) {
  std::set<std::string> keys;
  const std::string_view body = code.substr(fn.begin, fn.end - fn.begin);
  for (std::size_t p = body.find("\\\""); p != npos;
       p = body.find("\\\"", p + 1)) {
    const std::size_t start = p + 2;
    std::size_t q = start;
    while (q < body.size() && is_word(body[q])) ++q;
    if (q == start || q + 2 >= body.size()) continue;
    if (body.compare(q, 2, "\\\"") != 0 || body[q + 2] != ':') continue;
    keys.emplace(body.substr(start, q - start));
  }
  return keys;
}

/// JSON keys a reader consumes: the literal first argument of every
/// `find(" / number_or(" / string_or(" / bool_or("` call in the body. Calls
/// are found in the stripped text, the literal read from the raw text.
std::set<std::string> reader_keys(std::string_view raw, std::string_view text,
                                  const FunctionBody& fn) {
  static const char* kAccessors[] = {"find", "number_or", "string_or",
                                     "bool_or"};
  std::set<std::string> keys;
  const std::string_view body = text.substr(0, fn.end);
  for (const std::string_view accessor : kAccessors) {
    for (std::size_t pos = find_word(body, accessor, fn.begin); pos != npos;
         pos = find_word(body, accessor, pos + 1)) {
      std::size_t i = skip_space(body, pos + accessor.size());
      if (i >= body.size() || body[i] != '(') continue;
      i = skip_space(body, i + 1);
      if (i >= body.size() || body[i] != '"') continue;
      const std::size_t close = raw.find('"', i + 1);
      if (close < fn.end) keys.emplace(raw.substr(i + 1, close - i - 1));
    }
  }
  return keys;
}

std::string join_keys(const std::set<std::string>& keys) {
  std::string out;
  for (const std::string& k : keys) {
    if (!out.empty()) out += ", ";
    out += k;
  }
  return out;
}

}  // namespace

std::vector<Finding> check_wire_format(const fs::path& root) {
  std::vector<Finding> findings;
  for (const SerdeSpec& spec : kSerdePairs) {
    const std::string pair = std::string("serde pair '") + spec.name + "'";
    const std::string wraw = read_file(root / spec.writer_file);
    const std::string rraw = read_file(root / spec.reader_file);
    const std::string wtext = strip_comments_and_strings(wraw);
    const std::string rtext = strip_comments_and_strings(rraw);
    const auto wfn = find_function_body(wtext, spec.writer_fn);
    const auto rfn = find_function_body(rtext, spec.reader_fn);
    if (!wfn) {
      findings.push_back({spec.writer_file, 0, "wire-format",
                          pair + ": writer " + spec.writer_fn +
                              "() not found"});
      continue;
    }
    if (!rfn) {
      findings.push_back({spec.reader_file, 0, "wire-format",
                          pair + ": reader " + spec.reader_fn +
                              "() not found"});
      continue;
    }
    const std::set<std::string> written =
        writer_keys(blank_comments(wraw, /*blank_literals=*/false), *wfn);
    const std::set<std::string> read = reader_keys(rraw, rtext, *rfn);
    if (written.empty()) {
      findings.push_back({spec.writer_file, wfn->line, "wire-format",
                          pair + ": writer " + spec.writer_fn +
                              "() emits no recognizable JSON keys"});
      continue;
    }
    for (const std::string& k : read) {
      if (!written.contains(k)) {
        findings.push_back(
            {spec.reader_file, rfn->line, "wire-format",
             pair + ": reader " + spec.reader_fn + "() reads key \"" + k +
                 "\" which writer " + spec.writer_fn +
                 "() never writes (writes: " + join_keys(written) +
                 ") — the reader silently sees its fallback value"});
      }
    }
    if (spec.strict) {
      for (const std::string& k : written) {
        if (!read.contains(k)) {
          findings.push_back(
              {spec.writer_file, wfn->line, "wire-format",
               pair + " (strict): writer " + spec.writer_fn +
                   "() writes key \"" + k + "\" that reader " +
                   spec.reader_fn +
                   "() never reads — the round-trip drops a field"});
        }
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rule_registry() {
  static const std::vector<RuleInfo> kRules = {
      {"metric-docs", true,
       "every telea_* metric registered in src/ is documented in "
       "docs/OBSERVABILITY.md",
       check_metric_docs},
      {"trace-docs", true,
       "TraceEvent name strings match the docs/OBSERVABILITY.md event table "
       "in both directions",
       check_trace_docs},
      {"rng", false,
       "no unseeded entropy (rand/srand/time/std::random_device) outside "
       "src/util/rng.*",
       check_rng_discipline},
      {"field-width", false,
       "packet-field narrowing uses util/field.hpp helpers, never raw "
       "static_cast<uint8_t|uint16_t>",
       check_field_widths},
      {"layering", false,
       "the src/ include graph matches the intended layer DAG: no cycles, "
       "no illegal edges, nothing depends on tools/tests",
       check_layering},
      {"wire-format", false,
       "serialize/parse pairs agree on their JSON keys; strict pairs read "
       "back every key written",
       check_wire_format},
  };
  return kRules;
}

std::optional<std::vector<Finding>> run_rule(std::string_view rule,
                                             const fs::path& root) {
  for (const RuleInfo& r : rule_registry()) {
    if (rule == r.name) return r.check(root);
  }
  return std::nullopt;
}

std::vector<Finding> run_all(const fs::path& root) {
  std::vector<Finding> all;
  for (const RuleInfo& r : rule_registry()) {
    for (Finding& f : r.check(root)) all.push_back(std::move(f));
  }
  return all;
}

// ---------------------------------------------------------------------------
// mechanical fixes: the remedies that are a pure insertion. Anything needing
// judgment (layering, serde keys) stays manual.
// ---------------------------------------------------------------------------

namespace {

/// Appends a row to the trace event table (first column backticked name).
bool fix_doc_row(const fs::path& root, const std::vector<std::string>& args) {
  if (args.size() != 2) return false;
  const std::string& doc = args[0];
  const std::string& event = args[1];
  std::string text = read_file(root / doc);
  const std::size_t table = text.find("\n| event");
  if (table == npos) return false;
  std::size_t pos = text.find('\n', table + 1);
  std::size_t insert_at = pos;
  while (pos != npos && pos + 1 < text.size() && text[pos + 1] == '|') {
    insert_at = text.find('\n', pos + 1);
    if (insert_at == npos) insert_at = text.size();
    pos = insert_at;
  }
  const std::string row =
      "\n| `" + event + "` | — | — | TODO(--fix): describe the new event |";
  text.insert(insert_at, row);
  return write_file(root / doc, text);
}

/// Appends a bullet to the "Exported names:" metric list.
bool fix_metric_doc(const fs::path& root,
                    const std::vector<std::string>& args) {
  if (args.size() != 2) return false;
  const std::string& doc = args[0];
  const std::string& metric = args[1];
  std::string text = read_file(root / doc);
  const std::size_t anchor = text.find("Exported names:");
  if (anchor == npos) return false;
  // Walk the bullet list (lines starting "- " or indented continuations).
  std::size_t pos = text.find('\n', anchor);
  std::size_t insert_at = pos;
  while (pos != npos && pos + 1 < text.size()) {
    const char next = text[pos + 1];
    const bool list_line = next == '-' || next == ' ' || next == '\n';
    if (!list_line) break;
    if (next != '\n') {
      insert_at = text.find('\n', pos + 1);
      if (insert_at == npos) insert_at = text.size();
    }
    pos = text.find('\n', pos + 1);
  }
  const std::string bullet =
      "\n- `" + metric + "` — TODO(--fix): describe the new metric";
  text.insert(insert_at, bullet);
  return write_file(root / doc, text);
}

}  // namespace

std::size_t apply_fixes(const fs::path& root,
                        const std::vector<Finding>& findings) {
  std::size_t applied = 0;
  for (const Finding& f : findings) {
    bool ok = false;
    if (f.fix_kind == "insert-doc-row") {
      ok = fix_doc_row(root, f.fix_args);
    } else if (f.fix_kind == "insert-metric-doc") {
      ok = fix_metric_doc(root, f.fix_args);
    }
    if (ok) ++applied;
  }
  return applied;
}

}  // namespace telea::lint
