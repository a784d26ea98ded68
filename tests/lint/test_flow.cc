/**
 * @file
 * Pass-level tests for the analyses that decide where Expected and
 * floating-point results may flow, over synthetic in-memory files:
 * the expected-flow token rule (an unchecked value() in the library),
 * fp-determinism roster scoping, sanctioned kernels, unordered
 * containers and parallel reductions, DeterminismRoster parsing, and
 * the lockset rule's declaration check. The fixture suite
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

#include "lint/lexer.hh"
#include "lint/rules.hh"

using namespace snoop::lint;

namespace {

namespace fs = std::filesystem;

/** Per-file rule findings for one synthetic file at @p path. */
std::vector<Finding>
fileRules(const std::string &path, const std::string &src,
          const DeterminismRoster &roster = {})
{
    std::vector<Finding> out;
    runFileRules(path, path, lex(src), roster, out);
    return out;
}

size_t
countRule(const std::vector<Finding> &fs, const std::string &rule)
{
    return static_cast<size_t>(
        std::count_if(fs.begin(), fs.end(), [&](const Finding &f) {
            return f.rule == rule;
        }));
}

TEST(ExpectedFlow, ValueCallFiresInSrcOnly)
{
    const std::string src = "int f(Expected<int> &r) { return r.value(); }\n"
                            "int g(Expected<int> *r)\n"
                            "{\n"
                            "    return r->value();\n"
                            "}\n";
    std::vector<Finding> fs = fileRules("src/core/use.cc", src);
    ASSERT_EQ(countRule(fs, "expected-flow"), 2u);
    EXPECT_EQ(fs[0].line, 1u);
    EXPECT_EQ(fs[1].line, 4u);
    // The header that defines value() and the SNOOP_TRY macros, and
    // code outside the library (tests, tools, bench, examples), may
    // call it.
    EXPECT_EQ(countRule(fileRules("src/util/expected.hh", src),
                        "expected-flow"),
              0u);
    EXPECT_EQ(countRule(fileRules("tools/calibrate.cc", src),
                        "expected-flow"),
              0u);
}

TEST(ExpectedFlow, CheckedAccessorsAndLookalikesAreSilent)
{
    EXPECT_EQ(countRule(fileRules("src/core/use.cc",
                                  "double a = r.valueOr(0.0);\n"
                                  "double b = ratio.value;\n"
                                  "double c = value(r);\n"
                                  "// r.value() in a comment\n"
                                  "const char *d = \"r.value()\";\n"),
                        "expected-flow"),
              0u);
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
    EXPECT_EQ(countRule(fileRules("src/mva/solve.cc", src, roster),
                        "fp-determinism"),
              1u);
    // ...outside it (same content) the pass does not run.
    EXPECT_EQ(countRule(fileRules("src/stats/solve.cc", src, roster),
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
    EXPECT_EQ(countRule(fileRules("src/mva/kern.cc",
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
    EXPECT_EQ(countRule(fileRules("src/mva/solve.cc",
                                  "double f(double x)\n"
                                  "{\n"
                                  "    // snoop-lint: fp-ok\n"
                                  "    return std::exp(x);\n"
                                  "}\n",
                                  roster),
                        "fp-determinism"),
              0u);
}

TEST(FpDeterminism, UnorderedNameFiresOncePerLineInTheRoster)
{
    const std::string src =
        "std::unordered_map<int, std::unordered_set<int>> g_index;\n"
        "LookupMap<int, double> g_lookupOnly;\n"
        "double unorderedness(double x);\n";
    DeterminismRoster roster;
    roster.modules = {"src/serve/"};
    std::vector<Finding> fs = fileRules("src/serve/cache.hh", src, roster);
    ASSERT_EQ(countRule(fs, "fp-determinism"), 1u);
    auto hit = std::find_if(fs.begin(), fs.end(), [](const Finding &f) {
        return f.rule == "fp-determinism";
    });
    EXPECT_EQ(hit->line, 1u);
    EXPECT_NE(hit->message.find("LookupMap"), std::string::npos);
    EXPECT_EQ(countRule(fileRules("src/stats/index.cc", src, roster),
                        "fp-determinism"),
              0u);
}

TEST(FpDeterminism, ReduceAndExecutionFireInKernelFilesOnly)
{
    const std::string src =
        "double s = std::reduce(v.begin(), v.end(), 0.0);\n"
        "auto policy = std::execution::par;\n";
    DeterminismRoster roster;
    roster.modules = {"src/mva/"};
    roster.kernels = {"src/mva/kernel.hh"};
    EXPECT_EQ(countRule(fileRules("src/mva/kernel.hh", src, roster),
                        "fp-determinism"),
              2u);
    EXPECT_EQ(countRule(fileRules("src/mva/solve.cc", src, roster),
                        "fp-determinism"),
              0u);
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

TEST(Lockset, UnguardedGlobalFires)
{
    std::vector<Finding> fs = fileRules(
        "src/a.cc",
        "namespace {\n"
        "unsigned g_n = 0;\n"
        "void bump() { ++g_n; }\n"
        "}\n"
        "void run(unsigned n) { parallelFor(n, [] { bump(); }); }\n");
    ASSERT_EQ(countRule(fs, "lockset"), 1u);
    EXPECT_EQ(fs[0].line, 2u);
    EXPECT_NE(fs[0].message.find("'g_n'"), std::string::npos)
        << fs[0].message;
}

TEST(Lockset, MarkerWaivesAnUnguardedGlobal)
{
    EXPECT_EQ(countRule(fileRules("src/a.cc",
                                  "namespace {\n"
                                  "// snoop-lint: lockset-ok\n"
                                  "unsigned g_n = 0;\n"
                                  "void bump() { ++g_n; }\n"
                                  "}\n"
                                  "void run(unsigned n) "
                                  "{ parallelFor(n, [] { bump(); }); }\n"),
                        "lockset"),
              0u);
}

TEST(Lockset, UnreachableStateIsFlaggedToo)
{
    // A declaration rule: no parallelFor anywhere, and the mutable
    // global and the function-local static still fire, since a later
    // worker could reach them without touching this file.
    std::vector<Finding> fs = fileRules("src/a.cc",
                                        "namespace {\n"
                                        "unsigned g_n = 0;\n"
                                        "void bump() { ++g_n; }\n"
                                        "}\n"
                                        "unsigned next()\n"
                                        "{\n"
                                        "    static unsigned counter = 0;\n"
                                        "    return ++counter;\n"
                                        "}\n"
                                        "void run() { bump(); }\n");
    ASSERT_EQ(countRule(fs, "lockset"), 2u);
    EXPECT_EQ(fs[0].line, 2u);
    EXPECT_EQ(fs[1].line, 7u);
    EXPECT_NE(fs[1].message.find("static local 'counter'"),
              std::string::npos)
        << fs[1].message;
}

TEST(Lockset, SafeDeclarationsAndNonLibraryFilesAreClean)
{
    const std::string safe = "#include <atomic>\n"
                             "namespace {\n"
                             "const double kPi = 3.14;\n"
                             "constexpr int kN = 4;\n"
                             "thread_local int t_scratch = 0;\n"
                             "std::atomic<bool> g_armed{false};\n"
                             "Guarded<std::vector<int>> g_slots;\n"
                             "}\n";
    EXPECT_EQ(countRule(fileRules("src/a.cc", safe), "lockset"), 0u);
    // Tools own their process: the rule is src/-only.
    EXPECT_EQ(countRule(fileRules("tools/a.cc",
                                  "unsigned g_n = 0;\n"),
                        "lockset"),
              0u);
}

} // namespace
