#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "telea_lint/lint.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: telea_lint [--root DIR] [--rule NAME] [--list-rules] [--fix]\n"
      << "  --root DIR    repository root to analyze (default: .)\n"
      << "  --rule NAME   run one rule family only (see --list-rules)\n"
      << "  --list-rules  print the rule table and exit\n"
      << "  --fix         apply mechanical fixes (doc rows, metric bullets), then\n"
      << "                re-run and report what remains\n"
      << "Exits 0 when the tree is clean, 1 when any rule fires, 2 on bad\n"
      << "invocation. Catalog: docs/STATIC_ANALYSIS.md\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path root = ".";
  std::string rule;
  bool fix = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--rule" && i + 1 < argc) {
      rule = argv[++i];
    } else if (arg == "--fix") {
      fix = true;
    } else if (arg == "--list-rules") {
      for (const telea::lint::RuleInfo& r : telea::lint::rule_registry()) {
        std::printf("%-12s %-5s %s\n", r.name, r.fixable ? "fix" : "-",
                    r.description);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "telea_lint: unknown "
                << (arg.rfind("--", 0) == 0 ? "option" : "argument") << " '"
                << arg << "'\n";
      usage();
      return 2;
    }
  }

  const auto run = [&] {
    return rule.empty() ? std::optional(telea::lint::run_all(root))
                        : telea::lint::run_rule(rule, root);
  };
  auto findings = run();
  if (!findings.has_value()) {
    std::cerr << "telea_lint: unknown rule '" << rule << "'\n";
    usage();
    return 2;
  }

  if (fix) {
    const std::size_t applied = telea::lint::apply_fixes(root, *findings);
    if (applied > 0) {
      std::cout << "telea_lint: applied " << applied << " fix"
                << (applied == 1 ? "" : "es") << ", re-checking\n";
      findings = run();
    }
  }

  for (const auto& f : *findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (findings->empty()) {
    std::cout << "telea_lint: clean"
              << (rule.empty() ? "" : (" (" + rule + ")")) << "\n";
    return 0;
  }
  std::cout << "telea_lint: " << findings->size() << " finding"
            << (findings->size() == 1 ? "" : "s") << "\n";
  return 1;
}
