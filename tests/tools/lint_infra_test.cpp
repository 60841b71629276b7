// Tests for telea_lint's mechanical --fix insertions.
#include "telea_lint/lint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace telea::lint {
namespace {

namespace fs = std::filesystem;

class LintInfraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) /
            (std::string("telea_lint_infra_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
    opts_.root = root_;
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& text) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << text;
  }

  std::string read(const std::string& rel) {
    std::ifstream in(root_ / rel);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  fs::path root_;
  Options opts_;
};

// --- mechanical fixes -------------------------------------------------------

TEST_F(LintInfraTest, FixInsertsMissingEnumCase) {
  write("src/color.hpp",
        "enum class Color : std::uint8_t {\n"
        "  kRed,\n"
        "  kBlueGreen,\n"
        "};\n");
  write("src/color.cpp",
        "const char* color_name(Color c) {\n"
        "  switch (c) {\n"
        "    case Color::kRed: return \"red\";\n"
        "  }\n"
        "  return \"?\";\n"
        "}\n");
  opts_.enums = {{"Color", "src/color.hpp", "src/color.cpp", "color_name", ""}};
  auto findings = check_enum_strings(opts_);
  ASSERT_EQ(findings.size(), 1u);
  ASSERT_EQ(findings[0].fix_kind, "insert-enum-case");

  EXPECT_EQ(apply_fixes(opts_.root, findings), 1u);
  EXPECT_NE(read("src/color.cpp")
                .find("case Color::kBlueGreen: return \"blue_green\";"),
            std::string::npos);
  EXPECT_TRUE(check_enum_strings(opts_).empty());
}

TEST_F(LintInfraTest, FixAppendsTraceDocRowAndMetricBullet) {
  write("src/stats/trace.hpp", "enum class TraceEvent { kPing };\n");
  write("src/stats/trace.cpp",
        "const char* trace_event_name(TraceEvent e) {\n"
        "  switch (e) {\n"
        "    case TraceEvent::kPing: return \"ping\";\n"
        "  }\n"
        "  return \"?\";\n"
        "}\n");
  write("src/stats/metrics.cpp",
        "void reg(MetricsRegistry& m) { m.counter(\"telea_ping_total\"); }\n");
  write("docs/OBSERVABILITY.md",
        "# Observability\n"
        "\n"
        "| event | a | b | emitted by |\n"
        "|---|---|---|---|\n"
        "\n"
        "Exported names:\n"
        "\n"
        "- `telea_other_total` — something else\n");
  opts_.enums.clear();

  auto findings = run_all(opts_);
  std::vector<Finding> fixable;
  for (const Finding& f : findings) {
    if (!f.fix_kind.empty()) fixable.push_back(f);
  }
  ASSERT_EQ(fixable.size(), 2u);
  EXPECT_EQ(apply_fixes(opts_.root, fixable), 2u);

  const std::string doc = read("docs/OBSERVABILITY.md");
  EXPECT_NE(doc.find("| `ping` |"), std::string::npos);
  EXPECT_NE(doc.find("- `telea_ping_total`"), std::string::npos);
  EXPECT_TRUE(check_trace_docs(opts_).empty());
  EXPECT_TRUE(check_metric_docs(opts_).empty());
}

}  // namespace
}  // namespace telea::lint
