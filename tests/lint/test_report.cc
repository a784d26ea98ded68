/**
 * @file
 * Reporting tests: SARIF 2.1.0 serialization against the checked-in
 * golden file (byte-exact — the log must be deterministic or GitHub
 * code-scanning uploads churn), JSON escaping, the baseline
 * suppression file (parse, match, stale detection), and the
 * --list-rules snapshot (tests/lint/list_rules.snapshot must track
 * the rule registry).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/engine.hh"
#include "lint/report.hh"

using namespace snoop::lint;

namespace {

const char *kFixtures = SNOOP_LINT_FIXTURES;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::vector<Finding>
sampleFindings()
{
    return {
        {"src/util/alpha.cc", 12, "no-raw-assert",
         "raw assert() vanishes under NDEBUG; use SNOOP_ASSERT / "
         "SNOOP_REQUIRE instead"},
        {"src/core/beta.hh", 0, "doxygen-file",
         "header lacks a Doxygen '@file' comment block"},
    };
}

TEST(Sarif, MatchesGoldenFile)
{
    std::string expected =
        slurp(std::string(kFixtures) + "/expected.sarif");
    EXPECT_EQ(toSarif(sampleFindings()), expected);
}

TEST(Sarif, StructuralInvariants)
{
    std::string s = toSarif(sampleFindings());
    EXPECT_NE(s.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(s.find("\"name\": \"snoop_lint\""), std::string::npos);
    // A whole-file finding (line 0) is clamped to startLine 1, the
    // SARIF minimum.
    EXPECT_NE(s.find("\"startLine\": 1"), std::string::npos);
    // Every registered rule is exported.
    for (const RuleInfo &rule : ruleTable())
        EXPECT_NE(s.find(std::string("\"id\": \"") + rule.id + "\""),
                  std::string::npos)
            << rule.id;
}

TEST(Sarif, SchemaShapeCarriesRequiredKeys)
{
    // The keys GitHub code scanning actually consumes. A rename in
    // the serializer must fail here, not at upload time.
    std::string s = toSarif(sampleFindings());
    for (const char *key :
         {"\"$schema\"", "\"version\"", "\"runs\"", "\"tool\"",
          "\"driver\"", "\"rules\"", "\"results\"", "\"ruleId\"",
          "\"level\"", "\"message\"", "\"locations\"",
          "\"physicalLocation\"", "\"artifactLocation\"", "\"uri\"",
          "\"region\"", "\"startLine\"", "\"shortDescription\"",
          "\"defaultConfiguration\""})
        EXPECT_NE(s.find(key), std::string::npos) << key;
}

TEST(Sarif, RuleIdsAreStable)
{
    // Rule ids are an external contract: baselines, CI annotations,
    // and code-scanning alert history all key on them. Appending new
    // rules is fine; renaming or reordering the existing ones is not,
    // and a retired id (no-fatal-in-solver, unchecked-expected,
    // guarded-shared-state: folded into fatal-reachability,
    // expected-flow and lockset; format-attr, converged-check:
    // handed to the compiler and the Fatal non-convergence default)
    // is never reused.
    const char *kIds[] = {
        "pragma-once",          "doxygen-file",
        "no-using-std",         "no-raw-assert",
        "no-raw-thread",        "layering",
        "determinism",          "unused-include",
        "fatal-reachability",   "numeric-guard-coverage",
        "fp-determinism",       "lockset",
        "expected-flow",        "marker-allowlist",
    };
    const auto &rules = ruleTable();
    ASSERT_EQ(rules.size(), sizeof(kIds) / sizeof(kIds[0]));
    for (size_t i = 0; i < rules.size(); ++i)
        EXPECT_STREQ(rules[i].id, kIds[i]);
}

TEST(Sarif, EscapesJsonMetacharacters)
{
    std::vector<Finding> findings = {
        {"src/x.cc", 1, "no-raw-assert",
         "message with \"quotes\", a \\ backslash,\nand a newline"},
    };
    std::string s = toSarif(findings);
    EXPECT_NE(s.find("\\\"quotes\\\""), std::string::npos);
    EXPECT_NE(s.find("\\\\ backslash"), std::string::npos);
    EXPECT_NE(s.find("\\nand a newline"), std::string::npos);
}

TEST(Sarif, EmptyFindingsIsStillAValidLog)
{
    std::string s = toSarif({});
    EXPECT_NE(s.find("\"results\": [\n      ]"), std::string::npos);
}

TEST(Baseline, ParseMatchAndStale)
{
    Baseline b = Baseline::parse(
        "# comment line\n"
        "\n"
        "src/util/alpha.cc:no-raw-assert   # legacy assert, issue #7\n"
        "src/core/gone.cc:determinism      # fixed long ago\n");
    EXPECT_TRUE(b.errors().empty());
    EXPECT_EQ(b.size(), 2u);

    size_t suppressed = 0;
    auto kept = applyBaseline(sampleFindings(), b, &suppressed);
    EXPECT_EQ(suppressed, 1u);
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_EQ(kept[0].rule, "doxygen-file");

    auto stale = b.staleEntries();
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_EQ(stale[0], "src/core/gone.cc:determinism");
}

TEST(Baseline, MalformedLinesAreErrorsNotSilence)
{
    Baseline b = Baseline::parse("no-colon-here\n");
    ASSERT_EQ(b.errors().size(), 1u);
    EXPECT_NE(b.errors()[0].find("expected"), std::string::npos);
    EXPECT_EQ(b.size(), 0u);
}

TEST(Baseline, MissingFileIsEmpty)
{
    Baseline b = Baseline::load("/nonexistent/baseline.txt");
    EXPECT_EQ(b.size(), 0u);
    EXPECT_TRUE(b.errors().empty());
}

TEST(ChangedOnly, ToleratesDeletedAndRenamedFiles)
{
    // Regression: `git diff --name-only <ref>` used to feed deleted
    // (and renamed-away) paths into the target list; the diff is now
    // taken with --diff-filter=d and existing files only.
    namespace fs = std::filesystem;
    if (std::system("git --version > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "git not available";

    fs::path dir =
        fs::temp_directory_path() / "snoop_lint_changed_only";
    fs::remove_all(dir);
    fs::create_directories(dir / "src");
    auto sh = [&](const std::string &cmd) {
        return std::system(("cd \"" + dir.string() + "\" && " + cmd +
                            " > /dev/null 2>&1")
                               .c_str());
    };
    auto put = [&](const char *rel, const char *body) {
        std::ofstream out(dir / rel);
        out << body;
    };

    ASSERT_EQ(sh("git init -q"), 0);
    sh("git config user.email lint@test && git config user.name lint");
    put("src/keep.cc", "void keepCheck(int n) { assert(n > 0); }\n");
    put("src/doomed.cc", "void gone(int n) { assert(n > 0); }\n");
    put("src/old_name.cc", "void moved(int n) { assert(n > 0); }\n");
    ASSERT_EQ(sh("git add -A && git commit -qm seed"), 0);

    put("src/keep.cc", "void keepCheck(int n) { assert(n >= 0); }\n");
    fs::rename(dir / "src/old_name.cc", dir / "src/new_name.cc");
    fs::remove(dir / "src/doomed.cc");
    ASSERT_EQ(sh("git add -A"), 0);

    LintOptions opt;
    opt.root = dir.string();
    opt.changedOnly = true;
    opt.changedRef = "HEAD";
    opt.useBaseline = false;

    LintResult r = runLint(opt);
    EXPECT_TRUE(r.errors.empty()) << (r.errors.empty() ? ""
                                                       : r.errors[0]);
    // The surviving changed files are linted; the deleted file and
    // the rename's old path are not (and produce no errors).
    std::vector<std::string> files;
    for (const Finding &f : r.findings)
        files.push_back(f.file + ":" + f.rule);
    std::vector<std::string> want = {"src/keep.cc:no-raw-assert",
                                     "src/new_name.cc:no-raw-assert"};
    EXPECT_EQ(files, want);

    fs::remove_all(dir);
}

TEST(Allowlist, ParseMatchAndStale)
{
    Allowlist a = Allowlist::parse(
        "# registry of inline waivers\n"
        "\n"
        "src/util/fault.cc:fatal-ok        # handler must not recurse\n"
        "src/core/gone.cc:include-ok  # marker removed\n");
    EXPECT_TRUE(a.errors().empty());
    EXPECT_EQ(a.size(), 2u);

    EXPECT_TRUE(a.matches("src/util/fault.cc", "fatal-ok"));
    EXPECT_FALSE(a.matches("src/util/fault.cc", "include-ok"));
    EXPECT_FALSE(a.matches("src/util/other.cc", "fatal-ok"));

    // Only the never-matched entry is stale.
    auto stale = a.staleEntries();
    ASSERT_EQ(stale.size(), 1u);
    EXPECT_EQ(stale[0], "src/core/gone.cc:include-ok");
}

TEST(Allowlist, JustificationIsMandatory)
{
    Allowlist a =
        Allowlist::parse("src/util/fault.cc:fatal-ok\n"
                         "src/util/fault.cc:fatal-ok  #\n");
    EXPECT_EQ(a.errors().size(), 2u);
    for (const auto &err : a.errors())
        EXPECT_NE(err.find("justification"), std::string::npos) << err;
    EXPECT_EQ(a.size(), 0u);
}

TEST(Allowlist, MalformedLinesAreErrorsNotSilence)
{
    Allowlist a = Allowlist::parse("no-colon-here  # why\n");
    ASSERT_EQ(a.errors().size(), 1u);
    EXPECT_EQ(a.size(), 0u);
}

TEST(Allowlist, MissingFileIsEmpty)
{
    Allowlist a = Allowlist::load("/nonexistent/allowlist.txt");
    EXPECT_EQ(a.size(), 0u);
    EXPECT_TRUE(a.errors().empty());
}

TEST(ListRules, SnapshotTracksRegistry)
{
    // Must render exactly what `snoop_lint --list-rules` prints
    // (same "%-18s %s" format as the driver).
    std::ostringstream expected;
    for (const RuleInfo &rule : ruleTable()) {
        char buf[256];
        std::snprintf(buf, sizeof(buf), "%-18s %s\n", rule.id,
                      rule.summary);
        expected << buf;
    }
    std::string snapshot = slurp(std::string(kFixtures) +
                                 "/../list_rules.snapshot");
    EXPECT_EQ(snapshot, expected.str())
        << "tests/lint/list_rules.snapshot is out of date; regenerate "
           "with: snoop_lint --list-rules > tests/lint/"
           "list_rules.snapshot";
}

} // namespace
