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

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
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

bool exempt(const std::string& file, const std::vector<std::string>& list) {
  return std::find(list.begin(), list.end(), file) != list.end();
}

/// First occurrence of `word` in `text` at word boundaries, from `from`.
std::size_t find_word(std::string_view text, std::string_view word,
                      std::size_t from = 0) {
  for (std::size_t pos = text.find(word, from); pos != std::string_view::npos;
       pos = text.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || !is_word(text[pos - 1]);
    const std::size_t after = pos + word.size();
    const bool right_ok = after >= text.size() || !is_word(text[after]);
    if (left_ok && right_ok) return pos;
  }
  return std::string_view::npos;
}

}  // namespace

std::vector<EnumSpec> default_enum_specs() {
  return {
      {"TraceEvent", "src/stats/trace.hpp", "src/stats/trace.cpp",
       "trace_event_name", "trace_event_from_name"},
      {"TraceReason", "src/stats/trace.hpp", "src/stats/trace.cpp",
       "trace_reason_name", "trace_reason_from_name"},
      {"InvariantRule", "src/check/invariants.hpp", "src/check/invariants.cpp",
       "invariant_rule_name", "invariant_rule_from_name"},
      {"CommandOutcome", "src/harness/controller.hpp",
       "src/harness/controller.cpp", "command_outcome_name", ""},
  };
}

std::vector<LayerSpec> default_layer_specs() {
  // The realized architecture (docs/STATIC_ANALYSIS.md carries the diagram):
  // util and sim are foundations; radio sits on them; stats (trace/metrics)
  // is observability plumbing below every protocol layer; mac, then net,
  // then the TeleAdjusting core and the baseline protos; check audits core
  // state; harness composes everything. tools/tests/examples/bench may
  // depend on anything — nothing in src/ may depend on them.
  return {
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
       {"util", "sim", "radio", "stats", "mac", "net", "proto", "core",
        "check", "topo"}},
  };
}

std::vector<SerdeSpec> default_serde_specs() {
  return {
      // The trace stream is a full round-trip codec: telea_report and the
      // span engine reload exactly what the tracer wrote.
      {"trace-jsonl", "src/stats/trace.cpp", "append_trace_record_json",
       "src/stats/trace.cpp", "trace_record_from_json", /*strict=*/true},
      // Snapshot/report renderers feed readers that may ignore informational
      // keys, but must never read a key the writer does not emit.
      {"health-snapshot", "src/stats/health.cpp", "render_snapshot_json",
       "tools/telea_top.cpp", "render_snapshot", /*strict=*/false},
      {"flight-dump", "src/stats/trace.cpp", "render_flight_dump_json",
       "tools/telea_top.cpp", "render_flight_file",
       /*strict=*/false},
      {"bench-table", "src/stats/table.cpp", "render_json",
       "tools/bench_compare/compare.cpp", "parse_table_json",
       /*strict=*/false},
  };
}

std::string strip_comments_and_strings(std::string_view src) {
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
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < out.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') {
            if (i + 1 < out.size()) out[i + 1] = ' ';
            ++i;
          }
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> parse_enumerators(std::string_view header_text,
                                           std::string_view enum_name) {
  const std::string stripped = strip_comments_and_strings(header_text);
  const std::string needle = "enum class " + std::string(enum_name);
  std::size_t pos = find_word(stripped, needle);
  if (pos == std::string::npos) return {};
  const std::size_t open = stripped.find('{', pos);
  const std::size_t close = stripped.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return {};

  std::vector<std::string> names;
  std::size_t i = open + 1;
  while (i < close) {
    // Each enumerator: identifier [ = initializer ] up to ',' or '}'.
    while (i < close && !is_word(stripped[i])) ++i;
    std::size_t start = i;
    while (i < close && is_word(stripped[i])) ++i;
    if (i > start) names.emplace_back(stripped.substr(start, i - start));
    // Skip any initializer expression to the enumerator separator.
    while (i < close && stripped[i] != ',') ++i;
    ++i;
  }
  return names;
}

std::vector<Finding> check_enum_strings(const Options& opts) {
  std::vector<Finding> findings;
  for (const EnumSpec& spec : opts.enums) {
    const std::string header = read_file(opts.root / spec.header);
    if (header.empty()) {
      findings.push_back({spec.header, 0, "enum-string",
                          "cannot read header declaring enum " +
                              spec.enum_name});
      continue;
    }
    const std::vector<std::string> names =
        parse_enumerators(header, spec.enum_name);
    if (names.empty()) {
      findings.push_back({spec.header, 0, "enum-string",
                          "enum " + spec.enum_name + " not found"});
      continue;
    }
    const std::string source_raw = read_file(opts.root / spec.source);
    const std::string source = strip_comments_and_strings(source_raw);
    const std::size_t fn_pos = find_word(source, spec.name_fn);
    if (fn_pos == std::string::npos) {
      findings.push_back({spec.source, 0, "enum-string",
                          "mapping function " + spec.name_fn + " not found"});
      continue;
    }
    for (const std::string& name : names) {
      const std::string case_label =
          "case " + spec.enum_name + "::" + name + ":";
      if (source.find(case_label) == std::string::npos) {
        Finding f{spec.source, line_of(source, fn_pos), "enum-string",
                  spec.enum_name + "::" + name + " has no case in " +
                      spec.name_fn + "() — its string mapping is missing"};
        f.fix_kind = "insert-enum-case";
        f.fix_args = {spec.source, spec.enum_name, name, spec.name_fn};
        findings.push_back(std::move(f));
      }
    }
    if (!spec.from_name_fn.empty()) {
      // The probe loop must be bounded on the LAST enumerator; anything else
      // means values appended later silently fail to round-trip by name.
      const std::size_t from_pos = find_word(source, spec.from_name_fn);
      if (from_pos == std::string::npos) {
        findings.push_back({spec.source, 0, "enum-string",
                            "probe function " + spec.from_name_fn +
                                " not found"});
        continue;
      }
      const std::size_t body_end = source.find("\n}", from_pos);
      const std::string_view body =
          std::string_view(source).substr(from_pos,
                                          body_end == std::string::npos
                                              ? std::string::npos
                                              : body_end - from_pos);
      const std::string bound = spec.enum_name + "::" + names.back();
      if (body.find(bound) == std::string_view::npos) {
        findings.push_back(
            {spec.source, line_of(source, from_pos), "enum-string",
             spec.from_name_fn + "() loop bound does not name the last " +
                 spec.enum_name + " enumerator (" + bound +
                 ") — newly appended values will not round-trip"});
      }
    }
  }
  return findings;
}

std::vector<Finding> check_metric_docs(const Options& opts) {
  std::vector<Finding> findings;
  const std::string doc = read_file(opts.root / opts.metrics_doc);
  if (doc.empty()) {
    findings.push_back(
        {opts.metrics_doc, 0, "metric-docs", "metrics document missing"});
    return findings;
  }
  // First registered occurrence of every metric literal, for the report.
  std::set<std::string> reported;
  static const char* kCalls[] = {".describe(", ".counter(", ".gauge(",
                                 ".histogram("};
  for (const std::string& file :
       collect_sources(opts.root, opts.metric_scan_dirs)) {
    const std::string raw = read_file(opts.root / file);
    for (const char* call : kCalls) {
      for (std::size_t pos = raw.find(call); pos != std::string::npos;
           pos = raw.find(call, pos + 1)) {
        std::size_t i = pos + std::string_view(call).size();
        while (i < raw.size() &&
               std::isspace(static_cast<unsigned char>(raw[i])) != 0) {
          ++i;
        }
        if (i >= raw.size() || raw[i] != '"') continue;  // non-literal name
        const std::size_t end = raw.find('"', i + 1);
        if (end == std::string::npos) continue;
        const std::string name = raw.substr(i + 1, end - i - 1);
        if (name.rfind("telea_", 0) != 0) continue;
        if (!reported.insert(name).second) continue;
        if (doc.find(name) == std::string::npos) {
          Finding f{file, line_of(raw, pos), "metric-docs",
                    "metric " + name + " is not documented in " +
                        opts.metrics_doc};
          f.fix_kind = "insert-metric-doc";
          f.fix_args = {opts.metrics_doc, name};
          findings.push_back(std::move(f));
        }
      }
    }
  }
  return findings;
}

std::vector<Finding> check_trace_docs(const Options& opts) {
  std::vector<Finding> findings;
  const std::string header = read_file(opts.root / opts.trace_header);
  const std::vector<std::string> enumerators =
      parse_enumerators(header, "TraceEvent");
  if (enumerators.empty()) {
    findings.push_back({opts.trace_header, 0, "trace-docs",
                        "enum TraceEvent not found"});
    return findings;
  }
  // Name strings come from the *raw* source: the case labels survive
  // stripping but the returned literals do not.
  const std::string source = read_file(opts.root / opts.trace_source);
  std::vector<std::pair<std::string, std::string>> events;  // enumerator,name
  for (const std::string& e : enumerators) {
    const std::string label = "case TraceEvent::" + e + ":";
    const std::size_t pos = source.find(label);
    if (pos == std::string::npos) continue;  // enum-string reports this
    const std::size_t open = source.find('"', pos);
    const std::size_t close =
        open == std::string::npos ? open : source.find('"', open + 1);
    if (close == std::string::npos) continue;
    events.emplace_back(e, source.substr(open + 1, close - open - 1));
  }

  const std::string doc = read_file(opts.root / opts.trace_doc);
  if (doc.empty()) {
    findings.push_back(
        {opts.trace_doc, 0, "trace-docs", "trace document missing"});
    return findings;
  }
  // The event table: starts at the markdown header row "| event ..."; rows
  // are every following line beginning with '|'. Documented names are the
  // backticked tokens of each row's first column (a cell may hold several,
  // e.g. `kill` / `revive`).
  std::set<std::string> documented;
  std::map<std::string, std::size_t> documented_line;
  const std::size_t table = doc.find("\n| event");
  if (table == std::string::npos) {
    findings.push_back({opts.trace_doc, 0, "trace-docs",
                        "event table (header row '| event ...') not found"});
    return findings;
  }
  std::size_t pos = doc.find('\n', table + 1);
  while (pos != std::string::npos && pos + 1 < doc.size() &&
         doc[pos + 1] == '|') {
    const std::size_t eol = doc.find('\n', pos + 1);
    const std::string_view line =
        std::string_view(doc).substr(pos + 1, eol == std::string::npos
                                                  ? std::string::npos
                                                  : eol - pos - 1);
    const std::size_t cell_end = line.find('|', 1);
    const std::string_view cell =
        line.substr(1, cell_end == std::string_view::npos ? std::string_view::npos
                                                          : cell_end - 1);
    for (std::size_t tick = cell.find('`'); tick != std::string_view::npos;
         tick = cell.find('`', tick + 1)) {
      const std::size_t end = cell.find('`', tick + 1);
      if (end == std::string_view::npos) break;
      const std::string token(cell.substr(tick + 1, end - tick - 1));
      if (!token.empty()) {
        documented.insert(token);
        documented_line.emplace(token, line_of(doc, pos + 1));
      }
      tick = end;
    }
    pos = eol;
  }

  for (const auto& [enumerator, name] : events) {
    if (!documented.contains(name)) {
      const std::size_t at = find_word(header, enumerator);
      Finding f{opts.trace_header,
                at == std::string::npos ? 0 : line_of(header, at),
                "trace-docs",
                "TraceEvent::" + enumerator + " (\"" + name +
                    "\") is missing from the event table in " +
                    opts.trace_doc};
      f.fix_kind = "insert-doc-row";
      f.fix_args = {opts.trace_doc, name};
      findings.push_back(std::move(f));
    }
  }
  std::set<std::string> known;
  for (const auto& [enumerator, name] : events) {
    (void)enumerator;
    known.insert(name);
  }
  for (const std::string& token : documented) {
    if (!known.contains(token)) {
      findings.push_back(
          {opts.trace_doc, documented_line[token], "trace-docs",
           "event table lists `" + token +
               "` which is not a TraceEvent name string — stale doc row?"});
    }
  }
  return findings;
}

std::vector<Finding> check_rng_discipline(const Options& opts) {
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
  for (const std::string& file :
       collect_sources(opts.root, opts.rng_scan_dirs)) {
    if (exempt(file, opts.rng_exempt)) continue;
    const std::string text =
        strip_comments_and_strings(read_file(opts.root / file));
    for (const auto& ban : kBans) {
      const std::string_view token = ban.token;
      for (std::size_t pos = find_word(text, token);
           pos != std::string::npos; pos = find_word(text, token, pos + 1)) {
        // Only *calls* are entropy: require an open paren after the token
        // (so SimTime fields named `time` and the like stay legal).
        std::size_t i = pos + token.size();
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])) != 0) {
          ++i;
        }
        if (i >= text.size() || text[i] != '(') continue;
        // Qualified names other than std:: (e.g. sim.time(...)) are member
        // calls on our own types, not libc.
        if (pos >= 1 && (text[pos - 1] == '.' || text[pos - 1] == '>')) {
          continue;
        }
        if (pos >= 2 && text[pos - 1] == ':' && text[pos - 2] == ':') {
          const std::size_t qual_end = pos - 2;
          const std::size_t qual_start = [&] {
            std::size_t s = qual_end;
            while (s > 0 && is_word(text[s - 1])) --s;
            return s;
          }();
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

std::vector<Finding> check_field_widths(const Options& opts) {
  std::vector<Finding> findings;
  static const char* kCasts[] = {"static_cast<std::uint8_t>",
                                 "static_cast<std::uint16_t>",
                                 "static_cast<uint8_t>",
                                 "static_cast<uint16_t>"};
  for (const std::string& file :
       collect_sources(opts.root, opts.field_scan_dirs)) {
    if (exempt(file, opts.field_exempt)) continue;
    const std::string text =
        strip_comments_and_strings(read_file(opts.root / file));
    for (const char* cast : kCasts) {
      for (std::size_t pos = text.find(cast); pos != std::string::npos;
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

const std::vector<RuleInfo>& rule_registry() {
  static const std::vector<RuleInfo> kRules = {
      {"enum-string", true,
       "name-mapped enums: every enumerator has a *_name() case; the "
       "*_from_name() probe loop is bounded on the last enumerator"},
      {"metric-docs", true,
       "every telea_* metric registered in src/ is documented in "
       "docs/OBSERVABILITY.md"},
      {"trace-docs", true,
       "TraceEvent name strings match the docs/OBSERVABILITY.md event table "
       "in both directions"},
      {"rng", false,
       "no unseeded entropy (rand/srand/time/std::random_device) outside "
       "src/util/rng.*"},
      {"field-width", false,
       "packet-field narrowing uses util/field.hpp helpers, never raw "
       "static_cast<uint8_t|uint16_t>"},
      {"layering", false,
       "the src/ include graph matches the intended layer DAG: no cycles, "
       "no illegal edges, nothing depends on tools/tests"},
      {"wire-format", false,
       "size-pinned wire structs sum to their k<Name>Bytes constant, fixed "
       "headers fit kMaxPayloadBytes, serialize/parse pairs agree on keys"},
      {"code-arith", false,
       "BitString/path-code capacity mutators outside path_code/addressing "
       "must consume their overflow result (static addr.code_bounds)"},
  };
  return kRules;
}

SourceIndex build_semantic_index(const Options& opts) {
  return build_source_index(opts.root, {"src", "tools", "examples", "bench"});
}

std::optional<std::vector<Finding>> run_rule(std::string_view rule,
                                             const Options& opts) {
  if (rule == "enum-string") return check_enum_strings(opts);
  if (rule == "metric-docs") return check_metric_docs(opts);
  if (rule == "trace-docs") return check_trace_docs(opts);
  if (rule == "rng") return check_rng_discipline(opts);
  if (rule == "field-width") return check_field_widths(opts);
  if (rule == "layering") return check_layering(opts);
  if (rule == "wire-format") return check_wire_format(opts);
  if (rule == "code-arith") return check_code_arith(opts);
  return std::nullopt;
}

std::vector<Finding> run_all(const Options& opts) {
  std::vector<Finding> all = check_enum_strings(opts);
  for (auto&& f : check_metric_docs(opts)) all.push_back(std::move(f));
  for (auto&& f : check_trace_docs(opts)) all.push_back(std::move(f));
  for (auto&& f : check_rng_discipline(opts)) all.push_back(std::move(f));
  for (auto&& f : check_field_widths(opts)) all.push_back(std::move(f));
  // The semantic families share one index build.
  const SourceIndex index = build_semantic_index(opts);
  for (auto&& f : check_layering(opts, index)) all.push_back(std::move(f));
  for (auto&& f : check_wire_format(opts, index)) all.push_back(std::move(f));
  for (auto&& f : check_code_arith(opts, index)) all.push_back(std::move(f));
  return all;
}

}  // namespace telea::lint
