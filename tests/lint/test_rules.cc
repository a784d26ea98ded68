/**
 * @file
 * Fixture-suite diff test for the per-file rules: every fixture in
 * tests/lint/fixtures/ must produce exactly the findings listed in
 * kExpected — rule AND line — when run through the token-based
 * engine. This is the proof that the per-file rules reproduce the
 * line scanner's behavior (same fixtures, same lines), that the
 * lexer closes its known false-negative holes (char literals, raw
 * strings), and that every registered rule has a fixture that fires
 * it. Also covers the determinism pass scoping and markers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint/engine.hh"

using namespace snoop::lint;

namespace {

namespace fs = std::filesystem;

const char *kFixtures = SNOOP_LINT_FIXTURES;

/** (fixture basename, rule, line) */
struct Expected {
    const char *file;
    const char *rule;
    size_t line;
};

// One row per finding the suite must produce; a fixture absent here
// must lint clean. Lines are load-bearing: a rule that fires on the
// wrong line is a diff failure, not a pass.
const std::vector<Expected> kExpected = {
    {"bad_determinism.cc", "determinism", 13},
    {"bad_expected_flow.cc", "expected-flow", 25},
    {"bad_expected_flow.cc", "expected-flow", 36},
    {"bad_expected_flow__discard.cc", "expected-flow", 31},
    {"bad_fp_determinism.cc", "fp-determinism", 13},
    {"bad_fp_determinism.cc", "fp-determinism", 20},
    {"bad_fp_determinism.cc", "fp-determinism", 25},
    {"bad_fp_determinism.cc", "fp-determinism", 33},
    {"bad_fp_determinism__kernel.cc", "fp-determinism", 8},
    {"bad_fp_determinism__kernel.cc", "fp-determinism", 14},
    {"bad_fp_determinism__kernel.cc", "fp-determinism", 25},
    {"bad_lockset__unannotated.cc", "lockset", 12},
    {"bad_marker_allowlist.cc", "marker-allowlist", 7},
    {"bad_numeric_guard_coverage.cc", "numeric-guard-coverage", 9},
    {"bad_doxygen_file.hh", "doxygen-file", 0},
    {"bad_no_raw_assert.cc", "no-raw-assert", 12},
    {"bad_no_raw_assert__charlit.cc", "no-raw-assert", 14},
    {"bad_no_raw_thread.cc", "no-raw-thread", 15},
    {"bad_no_using_std.hh", "no-using-std", 11},
    {"bad_pragma_once.hh", "pragma-once", 1},
    {"bad_unused_include.cc", "unused-include", 8},
};

std::vector<Finding>
lintOne(const fs::path &file)
{
    LintOptions opt;
    opt.root = kFixtures;
    opt.paths = {file.string()};
    opt.treePasses = false;
    LintResult r = runLint(opt);
    EXPECT_TRUE(r.errors.empty());
    return r.findings;
}

TEST(RuleFixtures, SuiteDiff)
{
    // Gather actual findings over every top-level fixture file.
    std::vector<std::string> actual;
    for (const auto &entry : fs::directory_iterator(kFixtures)) {
        if (!entry.is_regular_file())
            continue;
        auto ext = entry.path().extension();
        if (ext != ".hh" && ext != ".cc")
            continue;
        for (const Finding &f : lintOne(entry.path())) {
            actual.push_back(entry.path().filename().string() + ":" +
                             f.rule + ":" + std::to_string(f.line));
        }
    }
    std::sort(actual.begin(), actual.end());

    std::vector<std::string> expected;
    for (const Expected &e : kExpected)
        expected.push_back(std::string(e.file) + ":" + e.rule + ":" +
                           std::to_string(e.line));
    std::sort(expected.begin(), expected.end());

    EXPECT_EQ(actual, expected);
}

TEST(RuleFixtures, EveryRuleHasAFiringFixture)
{
    // A rule no fixture fires could stop detecting anything and the
    // suite would never notice. layering is a tree property, so its
    // fixture is a tree_* directory rather than a bad_* file.
    for (const RuleInfo &rule : ruleTable()) {
        bool fired = std::any_of(
            kExpected.begin(), kExpected.end(),
            [&](const Expected &e) { return rule.id == std::string(e.rule); });
        if (!fired && rule.id == std::string("layering")) {
            LintOptions opt;
            opt.root = std::string(kFixtures) + "/tree_badedge";
            opt.paths = {opt.root + "/src"};
            opt.treePasses = true;
            for (const Finding &f : runLint(opt).findings)
                fired = fired || f.rule == "layering";
        }
        EXPECT_TRUE(fired) << "no fixture fires rule " << rule.id;
    }
}

TEST(RuleFixtures, GoodFixturesAreClean)
{
    for (const auto &entry : fs::directory_iterator(kFixtures)) {
        if (!entry.is_regular_file())
            continue;
        std::string name = entry.path().filename().string();
        if (name.rfind("good_", 0) != 0)
            continue;
        EXPECT_TRUE(lintOne(entry.path()).empty())
            << name << " must stay clean";
    }
}

TEST(Determinism, MarkerSuppresses)
{
    fs::path tmp = fs::temp_directory_path() / "bad_determinism_ok.cc";
    {
        std::ofstream out(tmp);
        out << "// snoop-lint: determinism-ok (seeding the REPL)\n"
            << "unsigned f() { return std::rand(); }\n";
    }
    // The bad_determinism* name opts into the pass; the marker wins.
    EXPECT_TRUE(lintOne(tmp).empty());
    fs::remove(tmp);
}

TEST(Determinism, OutsideSrcIsOutOfScope)
{
    fs::path tmp = fs::temp_directory_path() / "plain_tool.cc";
    {
        std::ofstream out(tmp);
        out << "unsigned f() { return std::rand(); }\n";
    }
    // Not under src/, not named bad_determinism*: pass does not run.
    EXPECT_TRUE(lintOne(tmp).empty());
    fs::remove(tmp);
}

class UnusedInclude : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() / "snoop_lint_iwyu_test";
        fs::create_directories(dir_);
        std::ofstream out(dir_ / "helper.hh");
        out << "#pragma once\n"
            << "/** @file helper */\n"
            << "#define HELPER_LIMIT 8\n"
            << "struct Helper { int n; };\n";
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    fs::path
    write(const char *name, const std::string &body)
    {
        fs::path p = dir_ / name;
        std::ofstream out(p);
        out << body;
        return p;
    }

    fs::path dir_;
};

TEST_F(UnusedInclude, MarkerSuppresses)
{
    fs::path f = write("marker.cc",
                       "#include \"helper.hh\" "
                       "// snoop-lint: include-ok (side effect)\n"
                       "int g() { return 0; }\n");
    EXPECT_TRUE(lintOne(f).empty());
}

TEST_F(UnusedInclude, MacroUseCounts)
{
    fs::path f = write("macro.cc",
                       "#include \"helper.hh\"\n"
                       "int g() { return HELPER_LIMIT; }\n");
    EXPECT_TRUE(lintOne(f).empty());
}

TEST_F(UnusedInclude, UnusedFires)
{
    fs::path f = write("unused.cc",
                       "#include \"helper.hh\"\n"
                       "int g() { return 0; }\n");
    auto findings = lintOne(f);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unused-include");
    EXPECT_EQ(findings[0].line, 1u);
}

TEST_F(UnusedInclude, OwnHeaderIsNeverUnused)
{
    write("self.hh", "#pragma once\n/** @file self */\n"
                     "struct Self { int n; };\n");
    fs::path f = write("self.cc",
                       "#include \"self.hh\"\n"
                       "int g() { return 1; }\n");
    EXPECT_TRUE(lintOne(f).empty());
}

} // namespace
