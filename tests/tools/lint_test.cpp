// Unit tests for telea_lint (tools/telea_lint): the stripper on tricky inputs,
// then each rule family against a fabricated mini-tree — once seeded with a
// violation (rule fires, right file/line) and once clean — the --fix
// insertions, the registry, and the committed tree itself.
#include "telea_lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace telea::lint {
namespace {

namespace fs = std::filesystem;

class LintTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test case: ctest runs each discovered case as its
    // own process, possibly in parallel — a shared tree would let one case
    // remove_all another's files mid-scan.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) /
            (std::string("telea_lint_") + info->test_suite_name() + "_" +
             info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
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
};

// The semantic rules and the --fix insertions share the mini-tree fixture.
class LintSemanticTest : public LintTreeTest {};
class LintInfraTest : public LintTreeTest {};

// --- stripper ---------------------------------------------------------------

TEST(StripTest, RemovesCommentsAndLiteralContentsKeepsNewlines) {
  const std::string src =
      "int a; // rand()\n"
      "/* time(\n"
      "   nullptr) */ int b;\n"
      "const char* s = \"rand()\";\n"
      "char c = 'r';\n";
  const std::string out = strip_comments_and_strings(src);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'),
            std::count(src.begin(), src.end(), '\n'));
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find("time"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
  // Quote characters survive (only contents are blanked) so string
  // boundaries remain visible to downstream scans.
  EXPECT_NE(out.find('"'), std::string::npos);
}

TEST(StripTest, HandlesEscapedQuotesInsideLiterals) {
  const std::string out =
      strip_comments_and_strings("auto s = \"a\\\"rand()\\\"b\"; int x;");
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("int x;"), std::string::npos);
}

// --- metric-docs rule -------------------------------------------------------

TEST_F(LintTreeTest, MetricDocsRuleFiresOnUndocumentedMetric) {
  write("src/stats.cpp",
        "void f(R& r) {\n"
        "  r.describe(\"telea_documented_total\", \"...\");\n"
        "  r.counter(\"telea_undocumented_total\", {});\n"
        "}\n");
  write("docs/OBSERVABILITY.md", "- `telea_documented_total` — a counter\n");

  const auto findings = check_metric_docs(root_);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "metric-docs");
  EXPECT_EQ(findings[0].file, "src/stats.cpp");
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("telea_undocumented_total"),
            std::string::npos);

  write("docs/OBSERVABILITY.md",
        "- `telea_documented_total` — a counter\n"
        "- `telea_undocumented_total` — now documented\n");
  EXPECT_TRUE(check_metric_docs(root_).empty());
}

// --- trace-docs rule --------------------------------------------------------

namespace {

const char* kTraceHeader =
    "enum class TraceEvent : std::uint8_t {\n"
    "  kControlTx,\n"
    "  kKill,\n"
    "  kRevive,\n"
    "};\n";

const char* kTraceSource =
    "const char* trace_event_name(TraceEvent e) {\n"
    "  switch (e) {\n"
    "    case TraceEvent::kControlTx: return \"control_tx\";\n"
    "    case TraceEvent::kKill: return \"kill\";\n"
    "    case TraceEvent::kRevive: return \"revive\";\n"
    "  }\n"
    "  return \"?\";\n"
    "}\n";

const char* kTraceDocClean =
    "Event taxonomy:\n"
    "\n"
    "| event             | `a` | emitted by |\n"
    "|-------------------|-----|------------|\n"
    "| `control_tx`      | x   | phy        |\n"
    "| `kill` / `revive` | —   | faults     |\n";

}  // namespace

TEST_F(LintTreeTest, TraceDocsRuleAcceptsAMatchingTable) {
  write("src/stats/trace.hpp", kTraceHeader);
  write("src/stats/trace.cpp", kTraceSource);
  write("docs/OBSERVABILITY.md", kTraceDocClean);
  EXPECT_TRUE(check_trace_docs(root_).empty());
}

TEST_F(LintTreeTest, TraceDocsRuleFiresOnUndocumentedEvent) {
  // A new enumerator + name string ships without a doc table row.
  write("src/stats/trace.hpp",
        "enum class TraceEvent : std::uint8_t {\n"
        "  kControlTx,\n"
        "  kKill,\n"
        "  kRevive,\n"
        "  kReboot,\n"
        "};\n");
  write("src/stats/trace.cpp",
        std::string(kTraceSource) +
            "// appended name mapping\n"
            "const char* extra(TraceEvent e) {\n"
            "  switch (e) {\n"
            "    case TraceEvent::kReboot: return \"reboot\";\n"
            "  }\n"
            "  return \"?\";\n"
            "}\n");
  write("docs/OBSERVABILITY.md", kTraceDocClean);

  const auto findings = check_trace_docs(root_);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "trace-docs");
  EXPECT_EQ(findings[0].file, "src/stats/trace.hpp");
  EXPECT_EQ(findings[0].line, 5u);  // kReboot's declaration line
  EXPECT_NE(findings[0].message.find("reboot"), std::string::npos);
}

TEST_F(LintTreeTest, TraceDocsRuleFiresOnStaleDocRow) {
  write("src/stats/trace.hpp", kTraceHeader);
  write("src/stats/trace.cpp", kTraceSource);
  write("docs/OBSERVABILITY.md",
        std::string(kTraceDocClean) + "| `vanished_event`  | —   | nobody |\n");

  const auto findings = check_trace_docs(root_);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "trace-docs");
  EXPECT_EQ(findings[0].file, "docs/OBSERVABILITY.md");
  EXPECT_EQ(findings[0].line, 7u);  // the appended row
  EXPECT_NE(findings[0].message.find("vanished_event"), std::string::npos);
  EXPECT_NE(findings[0].message.find("stale"), std::string::npos);
}

TEST_F(LintTreeTest, TraceDocsRuleReportsAMissingTable) {
  write("src/stats/trace.hpp", kTraceHeader);
  write("src/stats/trace.cpp", kTraceSource);
  write("docs/OBSERVABILITY.md", "No table here.\n");
  const auto findings = check_trace_docs(root_);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("event table"), std::string::npos);
}

// --- rng rule ---------------------------------------------------------------

TEST_F(LintTreeTest, RngRuleBansUnseededEntropyOutsideTheExemptFiles) {
  write("src/util/rng.cpp", "std::random_device rd;  // the one sanctioned use\n");
  write("src/bad.cpp",
        "int f() {\n"
        "  return rand() % 7;\n"
        "}\n");

  const auto findings = check_rng_discipline(root_);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "rng");
  EXPECT_EQ(findings[0].file, "src/bad.cpp");
  EXPECT_EQ(findings[0].line, 2u);
}

TEST_F(LintTreeTest, RngRuleIgnoresMembersCommentsAndNonCalls) {
  write("src/ok.cpp",
        "// rand() in a comment is fine\n"
        "const char* s = \"time(nullptr)\";\n"
        "void g(Clock& c) { c.time(); }        // member access\n"
        "int run_time(int t) { return t; }     // substring, not the token\n"
        "int x = my::rand();                   // qualified elsewhere\n");
  EXPECT_TRUE(check_rng_discipline(root_).empty());
}

// --- field-width rule -------------------------------------------------------

TEST_F(LintTreeTest, FieldWidthRuleFlagsRawNarrowingCastsInPacketCode) {
  write("src/proto/bad.cpp",
        "void f(Packet& p, std::size_t n) {\n"
        "  p.hops = static_cast<std::uint8_t>(n);\n"
        "}\n");
  // Outside the packet-facing dirs the cast is allowed.
  write("src/harness/ok.cpp",
        "int g(std::size_t n) { return static_cast<std::uint8_t>(n); }\n");

  const auto findings = check_field_widths(root_);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "field-width");
  EXPECT_EQ(findings[0].file, "src/proto/bad.cpp");
  EXPECT_EQ(findings[0].line, 2u);

  write("src/proto/bad.cpp",
        "void f(Packet& p, std::size_t n) {\n"
        "  p.hops = field::u8(n);\n"
        "}\n");
  EXPECT_TRUE(check_field_widths(root_).empty());
}

// --- layering ---------------------------------------------------------------

namespace {

std::size_t count_rule(const std::vector<Finding>& findings,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&rule](const Finding& f) { return f.rule == rule; }));
}

}  // namespace

TEST_F(LintSemanticTest, LayeringFlagsIllegalEdgeWithIncludeChain) {
  write("src/util/helper.hpp", "#pragma once\n#include \"net/thing.hpp\"\n");
  write("src/net/thing.hpp", "#pragma once\n");
  const auto findings = check_layering(root_);
  ASSERT_EQ(count_rule(findings, "layering"), 1u);
  EXPECT_EQ(findings[0].file, "src/util/helper.hpp");
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_NE(findings[0].message.find("src/net/thing.hpp"), std::string::npos);
}

TEST_F(LintSemanticTest, LayeringFlagsIncludeCycleOnce) {
  // A deliberate two-file cycle inside one layer: legal edges, still broken.
  write("src/net/a.hpp", "#pragma once\n#include \"net/b.hpp\"\n");
  write("src/net/b.hpp", "#pragma once\n#include \"net/a.hpp\"\n");
  const auto findings = check_layering(root_);
  ASSERT_EQ(count_rule(findings, "layering"), 1u);
  EXPECT_NE(findings[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/net/a.hpp"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/net/b.hpp"), std::string::npos);
}

TEST_F(LintSemanticTest, LayeringForbidsSrcDependingOnTools) {
  write("src/core/x.cpp", "#include \"telea_lint/lint.hpp\"\n");
  write("tools/telea_lint/lint.hpp", "#pragma once\n");
  const auto findings = check_layering(root_);
  ASSERT_EQ(count_rule(findings, "layering"), 1u);
  EXPECT_NE(findings[0].message.find("tools"), std::string::npos);
}

TEST_F(LintSemanticTest, LayeringQuietOnLegalEdgesAndSystemIncludes) {
  write("src/util/ids.hpp",
        "#pragma once\n"
        "#include <cstdint>\n"
        "// #include \"net/ctp.hpp\" (commented out: not an edge)\n"
        "/* #include \"net/ctp.hpp\" */\n");
  write("src/radio/medium.hpp", "#pragma once\n#include \"util/ids.hpp\"\n");
  write("src/net/ctp.hpp", "#pragma once\n#  include \"radio/medium.hpp\"\n");
  EXPECT_TRUE(check_layering(root_).empty());
}

TEST_F(LintSemanticTest, LayeringFlagsDirectoryAbsentFromSpec) {
  write("src/newlayer/x.hpp", "#pragma once\n");
  const auto findings = check_layering(root_);
  ASSERT_EQ(count_rule(findings, "layering"), 1u);
  EXPECT_NE(findings[0].message.find("newlayer"), std::string::npos);
}

// --- wire-format (serialize/parse pairs) ------------------------------------

namespace {

// The rule checks a fixed list of pairs; a mini-tree holds only the pair a
// test is about, so the others report "not found" and are filtered out.
std::vector<Finding> pair_findings(const std::vector<Finding>& findings,
                                   const std::string& pair) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (f.message.find("serde pair '" + pair + "'") != std::string::npos) {
      out.push_back(f);
    }
  }
  return out;
}

const char* kTraceCodecWriter =
    "void append_trace_record_json(std::string& out, const R& r) {\n"
    "  out += \"{\\\"t\\\":1,\\\"node\\\":2}\";  // {\\\"commented\\\":0}\n"
    "}\n";

}  // namespace

TEST_F(LintSemanticTest, WireFormatFlagsReaderKeyNeverWritten) {
  write("src/stats/health.cpp",
        "std::string NetworkHealthModel::render_snapshot_json(SimTime now) "
        "const {\n"
        "  out += \"{\\\"t\\\":1,\\\"nodes\\\":[]}\";\n"
        "}\n");
  write("tools/telea_top.cpp",
        "void render_snapshot(const JsonValue& snap, std::size_t limit) {\n"
        "  (void)snap.number_or(\"t\", 0);\n"
        "  (void)snap.number_or(\"seq\", 0);\n"  // never written
        "}\n");
  const auto findings =
      pair_findings(check_wire_format(root_), "health-snapshot");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "wire-format");
  EXPECT_EQ(findings[0].file, "tools/telea_top.cpp");
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_NE(findings[0].message.find("\"seq\""), std::string::npos);
}

TEST_F(LintSemanticTest, WireFormatStrictPairRequiresEveryKeyReadBack) {
  write("src/stats/trace.cpp",
        std::string(kTraceCodecWriter) +
            "std::optional<R> trace_record_from_json(const JsonValue& v) {\n"
            "  (void)v.number_or(\"t\", 0);\n"  // "node" written, never read
            "}\n");
  const auto findings = pair_findings(check_wire_format(root_), "trace-jsonl");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/stats/trace.cpp");
  EXPECT_NE(findings[0].message.find("\"node\""), std::string::npos);
}

TEST_F(LintSemanticTest, WireFormatQuietOnSymmetricStrictPair) {
  write("src/stats/trace.cpp",
        std::string(kTraceCodecWriter) +
            "void use() { trace_record_from_json(doc); }\n"  // a call, not the body
            "std::optional<R> trace_record_from_json(const JsonValue& v) {\n"
            "  (void)v.number_or(\"t\", 0);\n"
            "  if (const auto n = v.find(\"node\")) {}\n"
            "}\n");
  EXPECT_TRUE(pair_findings(check_wire_format(root_), "trace-jsonl").empty());
}

// --- mechanical fixes -------------------------------------------------------

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

  auto findings = run_all(root_);
  std::vector<Finding> fixable;
  for (const Finding& f : findings) {
    if (!f.fix_kind.empty()) fixable.push_back(f);
  }
  ASSERT_EQ(fixable.size(), 2u);
  EXPECT_EQ(apply_fixes(root_, fixable), 2u);

  const std::string doc = read("docs/OBSERVABILITY.md");
  EXPECT_NE(doc.find("| `ping` |"), std::string::npos);
  EXPECT_NE(doc.find("- `telea_ping_total`"), std::string::npos);
  EXPECT_TRUE(check_trace_docs(root_).empty());
  EXPECT_TRUE(check_metric_docs(root_).empty());
}

// --- registry / dispatch ----------------------------------------------------

TEST(RuleRegistryTest, CoversAllSixRulesAndDispatches) {
  const auto& rules = rule_registry();
  ASSERT_EQ(rules.size(), 6u);
  const fs::path root = ::testing::TempDir();
  for (const RuleInfo& r : rules) {
    EXPECT_TRUE(run_rule(r.name, root).has_value()) << r.name;
  }
  EXPECT_FALSE(run_rule("no-such-rule", root).has_value());
}

// --- run_all against the real repository ------------------------------------

TEST(LintRepoTest, CommittedTreeIsClean) {
  const fs::path root = TELEA_SOURCE_ROOT;
  if (!fs::exists(root / "src" / "stats" / "trace.hpp")) {
    GTEST_SKIP() << "repository root not found";
  }
  const auto findings = run_all(root);
  for (const auto& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  }
}

}  // namespace
}  // namespace telea::lint
