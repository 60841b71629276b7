#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "telea_lint/index.hpp"

/// telea_lint: repo-specific static analysis (docs/STATIC_ANALYSIS.md).
///
/// Eight rule families, each encoding a convention or contract the compiler
/// cannot see. Five are textual (v1):
///   enum-string   every enumerator of a name-mapped enum has a case in its
///                 *_name() switch, and the *_from_name() probe loop is
///                 bounded on the enum's LAST enumerator.
///   metric-docs   every metric name registered in src/ is documented in
///                 docs/OBSERVABILITY.md.
///   trace-docs    every TraceEvent name string appears in the
///                 docs/OBSERVABILITY.md event table, and every backticked
///                 event in that table maps back to a real TraceEvent.
///   rng           no rand()/srand()/time()/std::random_device outside the
///                 seeded simulation RNG (src/util/rng.*).
///   field-width   packet-field narrowing in src/proto, src/net, src/core
///                 goes through the checked helpers in util/field.hpp.
///
/// Three are semantic (v2), built on the shared per-file index
/// (telea_lint/index.hpp):
///   layering      the src/ include graph matches the intended layer DAG
///                 (docs/STATIC_ANALYSIS.md), with no file-level include
///                 cycles and nothing in src/ depending on tools/ or tests/.
///   wire-format   size-pinned wire structs (k<Name>Bytes) sum to their
///                 documented byte count, fixed headers fit the
///                 kMaxPayloadBytes budget, and every registered
///                 serialize/parse pair writes and reads the same JSON keys.
///   code-arith    capacity-returning BitString/path-code mutations outside
///                 path_code/addressing/bitstring must consume the result —
///                 the static twin of the runtime `addr.code_bounds` rule.
///
/// Standalone on purpose: no dependency on the simulator libraries, so the
/// tool builds and runs even when the tree under analysis does not compile.
namespace telea::lint {

struct Finding {
  std::string file;  // repo-root-relative path
  std::size_t line = 0;
  std::string rule;
  std::string message;
  /// Mechanical-fix payload ("" = not auto-fixable). Kinds:
  ///   insert-enum-case   args: source file, enum, enumerator, name_fn
  ///   insert-doc-row     args: doc file, event name   (trace-docs table)
  ///   insert-metric-doc  args: doc file, metric name  (metric-docs list)
  std::string fix_kind = {};
  std::vector<std::string> fix_args = {};
};

/// A name-mapped enum under the enum-string rule.
struct EnumSpec {
  std::string enum_name;     // e.g. "TraceEvent"
  std::string header;        // file declaring the enum (root-relative)
  std::string source;        // file holding the switch / probe loop
  std::string name_fn;       // e.g. "trace_event_name"
  std::string from_name_fn;  // "" = enum has no from-name probe loop
};

/// One layer of the intended src/ dependency DAG: files under
/// src/<dir> may include src/<dir> itself plus src/<d> for d in deps.
struct LayerSpec {
  std::string dir;
  std::vector<std::string> deps;
};

/// One serialize/parse pair under the wire-format rule: the JSON keys the
/// writer emits versus the keys the reader consumes. The reader's keys must
/// always be a subset of the writer's (a key read but never written is a
/// silent-default bug); `strict` additionally requires the writer's keys to
/// all be read back (a full round-trip codec).
struct SerdeSpec {
  std::string name;         // for messages, e.g. "trace-jsonl"
  std::string writer_file;  // root-relative
  std::string writer_fn;
  std::string reader_file;
  std::string reader_fn;
  bool strict = false;
};

[[nodiscard]] std::vector<EnumSpec> default_enum_specs();
[[nodiscard]] std::vector<LayerSpec> default_layer_specs();
[[nodiscard]] std::vector<SerdeSpec> default_serde_specs();

struct Options {
  std::filesystem::path root = ".";
  std::vector<EnumSpec> enums = default_enum_specs();
  std::string metrics_doc = "docs/OBSERVABILITY.md";
  std::vector<std::string> metric_scan_dirs = {"src", "tools"};
  // trace-docs: where TraceEvent lives and which doc table must list it.
  std::string trace_header = "src/stats/trace.hpp";
  std::string trace_source = "src/stats/trace.cpp";
  std::string trace_doc = "docs/OBSERVABILITY.md";
  std::vector<std::string> rng_scan_dirs = {"src", "examples", "bench",
                                            "tools"};
  std::vector<std::string> rng_exempt = {"src/util/rng.hpp",
                                         "src/util/rng.cpp"};
  std::vector<std::string> field_scan_dirs = {"src/proto", "src/net",
                                              "src/core"};
  std::vector<std::string> field_exempt = {};

  // --- layering ---
  std::vector<LayerSpec> layers = default_layer_specs();
  std::string layering_root = "src";  // the tree the DAG governs

  // --- wire-format ---
  std::vector<std::string> wire_struct_dirs = {"src/radio", "src/proto"};
  // Named payload budget; checked when the constant exists in an indexed
  // wire file. Every wire struct's fixed-width field sum must fit it.
  std::string payload_budget_const = "kMaxPayloadBytes";
  std::vector<SerdeSpec> serde = default_serde_specs();

  // --- code-arith ---
  std::vector<std::string> code_arith_scan_dirs = {"src"};
  std::vector<std::string> code_arith_exempt = {
      "src/core/path_code.cpp",  "src/core/path_code.hpp",
      "src/core/addressing.cpp", "src/core/addressing.hpp",
      "src/util/bitstring.cpp",  "src/util/bitstring.hpp"};
};

/// Replaces comments and string/char literal contents with spaces, keeping
/// every newline so reported line numbers match the original text.
[[nodiscard]] std::string strip_comments_and_strings(std::string_view src);

/// Enumerator names of `enum_name` as declared in `header_text`, in
/// declaration order. Empty when the enum is not found.
[[nodiscard]] std::vector<std::string> parse_enumerators(
    std::string_view header_text, std::string_view enum_name);

// --- v1 rules (textual) ---
[[nodiscard]] std::vector<Finding> check_enum_strings(const Options& opts);
[[nodiscard]] std::vector<Finding> check_metric_docs(const Options& opts);
[[nodiscard]] std::vector<Finding> check_trace_docs(const Options& opts);
[[nodiscard]] std::vector<Finding> check_rng_discipline(const Options& opts);
[[nodiscard]] std::vector<Finding> check_field_widths(const Options& opts);

// --- v2 rules (semantic, index-driven) ---
[[nodiscard]] std::vector<Finding> check_layering(const Options& opts,
                                                  const SourceIndex& index);
[[nodiscard]] std::vector<Finding> check_wire_format(const Options& opts,
                                                     const SourceIndex& index);
[[nodiscard]] std::vector<Finding> check_code_arith(const Options& opts,
                                                    const SourceIndex& index);
// Convenience overloads that build their own index (tests, --rule runs).
[[nodiscard]] std::vector<Finding> check_layering(const Options& opts);
[[nodiscard]] std::vector<Finding> check_wire_format(const Options& opts);
[[nodiscard]] std::vector<Finding> check_code_arith(const Options& opts);

/// The index the semantic rules share: every C++ file under src/, tools/,
/// examples/ and bench/ of `opts.root`.
[[nodiscard]] SourceIndex build_semantic_index(const Options& opts);

/// The rule registry, in execution order (--list-rules).
struct RuleInfo {
  const char* name;
  bool fixable;
  const char* description;  // one line
};
[[nodiscard]] const std::vector<RuleInfo>& rule_registry();

/// Runs one rule family by name; nullopt for an unknown rule.
[[nodiscard]] std::optional<std::vector<Finding>> run_rule(
    std::string_view rule, const Options& opts);

/// All rules in registry order.
[[nodiscard]] std::vector<Finding> run_all(const Options& opts);

// --- mechanical fixes (fix.cpp) ---

/// Applies every finding with a fix payload; returns how many edits were
/// written. Callers re-run the rules afterwards to report what remains.
[[nodiscard]] std::size_t apply_fixes(const std::filesystem::path& root,
                                      const std::vector<Finding>& findings);

}  // namespace telea::lint
