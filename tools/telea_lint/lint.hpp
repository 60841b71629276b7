#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// telea_lint: repo-specific static analysis (docs/STATIC_ANALYSIS.md).
///
/// Six rule families, each a convention the compiler cannot see, each a text
/// scan over comment- and string-stripped source:
///   metric-docs   every metric name registered in src/ is documented in
///                 docs/OBSERVABILITY.md.
///   trace-docs    every TraceEvent name string appears in the
///                 docs/OBSERVABILITY.md event table, and every backticked
///                 event in that table maps back to a real TraceEvent.
///   rng           no rand()/srand()/time()/std::random_device outside the
///                 seeded simulation RNG (src/util/rng.*).
///   field-width   packet-field narrowing in src/proto, src/net, src/core
///                 goes through the checked helpers in util/field.hpp.
///   layering      the src/ include graph matches the intended layer DAG
///                 (docs/STATIC_ANALYSIS.md), with no file-level include
///                 cycles and nothing in src/ depending on tools/ or tests/.
///   wire-format   every registered serialize/parse pair writes and reads
///                 the same JSON keys.
///
/// What the compiler can check it does: discarded BitString capacity results
/// ([[nodiscard]] + -Werror=unused-result), missing enum name cases
/// (-Werror=switch) and wire struct sizes (static_assert).
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
  ///   insert-doc-row     args: doc file, event name   (trace-docs table)
  ///   insert-metric-doc  args: doc file, metric name  (metric-docs list)
  std::string fix_kind = {};
  std::vector<std::string> fix_args = {};
};

/// Replaces comments and string/char literal contents with spaces, keeping
/// every newline so reported line numbers match the original text.
[[nodiscard]] std::string strip_comments_and_strings(std::string_view src);

// Each rule scans the repository rooted at `root`.
[[nodiscard]] std::vector<Finding> check_metric_docs(
    const std::filesystem::path& root);
[[nodiscard]] std::vector<Finding> check_trace_docs(
    const std::filesystem::path& root);
[[nodiscard]] std::vector<Finding> check_rng_discipline(
    const std::filesystem::path& root);
[[nodiscard]] std::vector<Finding> check_field_widths(
    const std::filesystem::path& root);
[[nodiscard]] std::vector<Finding> check_layering(
    const std::filesystem::path& root);
[[nodiscard]] std::vector<Finding> check_wire_format(
    const std::filesystem::path& root);

/// The rule registry, in execution order (--list-rules).
struct RuleInfo {
  const char* name;
  bool fixable;
  const char* description;  // one line
  std::vector<Finding> (*check)(const std::filesystem::path& root);
};
[[nodiscard]] const std::vector<RuleInfo>& rule_registry();

/// Runs one rule family by name; nullopt for an unknown rule.
[[nodiscard]] std::optional<std::vector<Finding>> run_rule(
    std::string_view rule, const std::filesystem::path& root);

/// All rules in registry order.
[[nodiscard]] std::vector<Finding> run_all(const std::filesystem::path& root);

/// Applies every finding with a fix payload; returns how many edits were
/// written. Callers re-run the rules afterwards to report what remains.
[[nodiscard]] std::size_t apply_fixes(const std::filesystem::path& root,
                                      const std::vector<Finding>& findings);

}  // namespace telea::lint
