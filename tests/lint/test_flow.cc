/**
 * @file
 * Pass-level tests for the flow-sensitive analyses
 * (tools/lint/flow.{hh,cc}) over synthetic in-memory FileSets:
 * fp-determinism roster scoping and sanctioned kernels, lockset's
 * worker-reachable state, expected-flow path sensitivity, call
 * temporaries and unconsulted bindings, and DeterminismRoster
 * parsing. The fixture suite
 * (test_rules.cc) proves end-to-end line numbers; these tests pin
 * the pass logic itself so a regression names the analysis, not
 * just "the suite diff changed".
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint/flow.hh"
#include "lint/lexer.hh"

using namespace snoop::lint;

namespace {

namespace fs = std::filesystem;

/** Findings for a single synthetic file under @p roster. */
std::vector<Finding>
runOn(const std::string &path, const std::string &src,
      const DeterminismRoster &roster = {})
{
    FileSet files;
    files.emplace(path, lex(src));
    SymbolIndex index = SymbolIndex::build(files);
    return runFlowPasses(files, index, CallGraph::build(index, files),
                         roster);
}

size_t
countRule(const std::vector<Finding> &fs, const std::string &rule)
{
    return static_cast<size_t>(
        std::count_if(fs.begin(), fs.end(), [&](const Finding &f) {
            return f.rule == rule;
        }));
}

TEST(FpDeterminism, RosterModuleScopesThePass)
{
    const std::string src = "double f(double x)\n"
                            "{\n"
                            "    return std::exp(x);\n"
                            "}\n";
    DeterminismRoster roster;
    roster.modules = {"src/mva/"};
    // In a roster module the transcendental fires...
    EXPECT_EQ(countRule(runOn("src/mva/solve.cc", src, roster),
                        "fp-determinism"),
              1u);
    // ...outside it (same content) the pass does not run.
    EXPECT_EQ(countRule(runOn("src/stats/solve.cc", src, roster),
                        "fp-determinism"),
              0u);
}

TEST(FpDeterminism, SanctionedKernelBodyIsExempt)
{
    DeterminismRoster roster;
    roster.modules = {"src/mva/"};
    roster.sanctioned.insert("fastExp");
    // The sanctioned function IS the deterministic replacement; libm
    // inside its own body is the point, not a violation.
    EXPECT_EQ(countRule(runOn("src/mva/kern.cc",
                              "double fastExp(double x)\n"
                              "{\n"
                              "    return std::exp(x);\n"
                              "}\n",
                              roster),
                        "fp-determinism"),
              0u);
}

TEST(FpDeterminism, MarkerWaives)
{
    DeterminismRoster roster;
    roster.modules = {"src/mva/"};
    EXPECT_EQ(countRule(runOn("src/mva/solve.cc",
                              "double f(double x)\n"
                              "{\n"
                              "    // snoop-lint: fp-ok\n"
                              "    return std::exp(x);\n"
                              "}\n",
                              roster),
                        "fp-determinism"),
              0u);
}

TEST(Lockset, UnguardedWorkerGlobalFires)
{
    std::vector<Finding> fs =
        runOn("src/a.cc",
              "namespace {\n"
              "unsigned g_n = 0;\n"
              "void bump() { ++g_n; }\n"
              "}\n"
              "void run(unsigned n) { parallelFor(n, [] { bump(); }); }\n");
    ASSERT_EQ(countRule(fs, "lockset"), 1u);
    EXPECT_EQ(fs[0].line, 2u);
    EXPECT_NE(fs[0].message.find("via bump"), std::string::npos)
        << fs[0].message;
}

TEST(Lockset, MarkerWaivesAnUnguardedWorkerGlobal)
{
    EXPECT_TRUE(runOn("src/a.cc",
                      "namespace {\n"
                      "// snoop-lint: lockset-ok\n"
                      "unsigned g_n = 0;\n"
                      "void bump() { ++g_n; }\n"
                      "}\n"
                      "void run(unsigned n) { parallelFor(n, [] { bump(); }); }\n")
                    .empty());
}

TEST(Lockset, UnreachableStateIsNotFlagged)
{
    // No parallelFor anywhere: nothing is worker-reachable.
    EXPECT_TRUE(runOn("src/a.cc",
                      "namespace {\n"
                      "unsigned g_n = 0;\n"
                      "void bump() { ++g_n; }\n"
                      "}\n"
                      "void run() { bump(); }\n")
                    .empty());
}

TEST(ExpectedFlow, CheckedOnOneBranchReadOnAnother)
{
    const std::string src =
        "#include \"util/expected.hh\"\n"
        "Expected<int> tryGet(int k);\n"
        "int\n"
        "f(int k, bool fast)\n"
        "{\n"
        "    auto r = tryGet(k);\n"
        "    if (fast)\n"
        "        return r.value();\n"
        "    if (!r.ok())\n"
        "        return 0;\n"
        "    return r.value();\n"
        "}\n";
    std::vector<Finding> fs = runOn("src/core/use.cc", src);
    ASSERT_EQ(countRule(fs, "expected-flow"), 1u);
    EXPECT_EQ(fs[0].line, 8u);
}

TEST(ExpectedFlow, CheckedEveryPathIsSilent)
{
    EXPECT_EQ(countRule(runOn("src/core/use.cc",
                              "#include \"util/expected.hh\"\n"
                              "Expected<int> tryGet(int k);\n"
                              "int\n"
                              "f(int k)\n"
                              "{\n"
                              "    auto r = tryGet(k);\n"
                              "    if (!r.ok())\n"
                              "        return 0;\n"
                              "    return r.value();\n"
                              "}\n"),
                        "expected-flow"),
              0u);
}

TEST(ExpectedFlow, ErrBranchReadFires)
{
    std::vector<Finding> fs =
        runOn("src/core/use.cc",
              "#include \"util/expected.hh\"\n"
              "Expected<int> tryGet(int k);\n"
              "int\n"
              "f(int k)\n"
              "{\n"
              "    auto r = tryGet(k);\n"
              "    if (r.ok())\n"
              "        return r.value();\n"
              "    return r.value();\n"
              "}\n");
    ASSERT_EQ(countRule(fs, "expected-flow"), 1u);
    EXPECT_EQ(fs[0].line, 9u);
}

TEST(ExpectedFlow, TrackedVariableNeverConsulted)
{
    std::vector<Finding> fs = runOn("src/a.cc",
                                    "Expected<int> tryLoad() { return 1; }\n"
                                    "void use()\n"
                                    "{\n"
                                    "    auto r = tryLoad();\n"
                                    "    unrelated();\n"
                                    "}\n");
    ASSERT_EQ(countRule(fs, "expected-flow"), 1u);
    EXPECT_EQ(fs[0].line, 4u);
    EXPECT_NE(fs[0].message.find("never consulted"), std::string::npos);
}

TEST(ExpectedFlow, NegationCheckSilences)
{
    EXPECT_TRUE(runOn("src/a.cc",
                      "Expected<int> tryLoad() { return 1; }\n"
                      "int use()\n"
                      "{\n"
                      "    auto r = tryLoad();\n"
                      "    if (!r)\n"
                      "        return 0;\n"
                      "    return r.value();\n"
                      "}\n")
                    .empty());
}

TEST(ExpectedFlow, ValueOnCallTemporaryFires)
{
    // The temporary's .value() fires even when bound; valueOr() on a
    // temporary is the safe accessor and stays silent.
    std::vector<Finding> fs =
        runOn("src/a.cc",
              "Expected<int> tryLoad(int k);\n"
              "int use(int k)\n"
              "{\n"
              "    int a = tryLoad(k).valueOr(0);\n"
              "    int b = tryLoad(k).value();\n"
              "    return a + b;\n"
              "}\n");
    ASSERT_EQ(countRule(fs, "expected-flow"), 1u);
    EXPECT_EQ(fs[0].line, 5u);
    EXPECT_NE(fs[0].message.find("tryLoad()"), std::string::npos);
}

TEST(ExpectedFlow, PathFreeCasesFireWhereTheCfgDegrades)
{
    // A goto degrades the CFG, so the path analysis stays silent; the
    // call temporary and the unconsulted binding need no path.
    std::vector<Finding> fs =
        runOn("src/a.cc",
              "Expected<int> tryLoad(int k);\n"
              "int use(int k)\n"
              "{\n"
              "    auto r = tryLoad(k);\n"
              "    if (k < 0)\n"
              "        goto out;\n"
              "    return tryLoad(k).value();\n"
              "out:\n"
              "    return 0;\n"
              "}\n");
    ASSERT_EQ(countRule(fs, "expected-flow"), 2u);
    EXPECT_EQ(fs[0].line, 4u);
    EXPECT_EQ(fs[1].line, 7u);
}

TEST(Roster, LoadParsesDirectives)
{
    fs::path tmp = fs::temp_directory_path() / "determinism_test.txt";
    {
        std::ofstream out(tmp);
        out << "# roster\n"
            << "module src/mva/\n"
            << "kernel src/mva/kernel.hh\n"
            << "sanctioned mvaExp2\n";
    }
    std::string err;
    DeterminismRoster r = DeterminismRoster::load(tmp.string(), &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_TRUE(r.memberFile("src/mva/solve.cc"));
    EXPECT_TRUE(r.memberFile("src/mva/kernel.hh"));
    EXPECT_FALSE(r.memberFile("src/stats/solve.cc"));
    EXPECT_TRUE(r.kernelFile("src/mva/kernel.hh"));
    EXPECT_FALSE(r.kernelFile("src/mva/solve.cc"));
    EXPECT_EQ(r.sanctioned.count("mvaExp2"), 1u);
    fs::remove(tmp);
}

TEST(Roster, MalformedDirectiveIsAnError)
{
    fs::path tmp = fs::temp_directory_path() / "determinism_bad.txt";
    {
        std::ofstream out(tmp);
        out << "frobnicate src/mva/\n";
    }
    std::string err;
    DeterminismRoster::load(tmp.string(), &err);
    EXPECT_FALSE(err.empty());
    fs::remove(tmp);
}

TEST(Roster, MissingFileIsAnEmptyRosterNotAnError)
{
    std::string err;
    DeterminismRoster r =
        DeterminismRoster::load("/nonexistent/determinism.txt", &err);
    EXPECT_TRUE(err.empty());
    EXPECT_TRUE(r.modules.empty());
    EXPECT_TRUE(r.kernels.empty());
}

} // namespace
