/**
 * @file
 * Parser-layer tests: the declaration/definition parser
 * (lint/parser.hh) and the numeric-guard-coverage rule built on one
 * file's parse (lint/rules.hh), driven over synthetic files; the
 * lockset rule has its own tests in test_flow.cc. The fixture suite
 * (test_rules.cc / run_lint.sh) proves the rules fire end-to-end;
 * these tests pin the parser contracts — scope tracking, qualified
 * names, body ranges and global flags — that the rules rely on.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/parser.hh"
#include "lint/rules.hh"

using namespace snoop::lint;

namespace {

ParsedFile
parseSource(const std::string &src)
{
    return parseFile(lex(src));
}

const FunctionDef *
findDef(const ParsedFile &pf, const std::string &qualified)
{
    for (const FunctionDef &def : pf.functions)
        if (def.qualified == qualified)
            return &def;
    return nullptr;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// --- parser ----------------------------------------------------------

TEST(Parser, QualifiedDefinitionInsideNamespace)
{
    ParsedFile pf = parseSource(
        "namespace snoop {\n"
        "Expected<MvaResult>\n"
        "MvaSolver::trySolve(const DerivedInputs &d, unsigned n)\n"
        "{\n"
        "    return run(d, n);\n"
        "}\n"
        "} // namespace snoop\n");
    ASSERT_EQ(pf.functions.size(), 1u);
    const FunctionDef &def = pf.functions[0];
    EXPECT_EQ(def.name, "trySolve");
    EXPECT_EQ(def.qualified, "MvaSolver::trySolve");
    EXPECT_EQ(def.line, 3u);
    EXPECT_NE(def.returnText.find("Expected"), std::string::npos);
    EXPECT_LT(def.bodyBegin, def.bodyEnd);
}

TEST(Parser, AnonymousNamespaceAndStaticDefinitionsAreFound)
{
    ParsedFile pf = parseSource(
        "namespace {\n"
        "int helper() { return 1; }\n"
        "} // namespace\n"
        "static int quiet() { return 2; }\n"
        "int exported() { return 3; }\n");
    ASSERT_EQ(pf.functions.size(), 3u);
    EXPECT_NE(findDef(pf, "helper"), nullptr);
    EXPECT_NE(findDef(pf, "quiet"), nullptr);
    EXPECT_NE(findDef(pf, "exported"), nullptr);
}

TEST(Parser, LambdaBodyStaysInEnclosingFunction)
{
    ParsedFile pf = parseSource(
        "void launch(unsigned n)\n"
        "{\n"
        "    parallelFor(n, [](size_t i) { work(i); });\n"
        "}\n");
    // One definition, not two: the lambda is part of launch's body.
    ASSERT_EQ(pf.functions.size(), 1u);
    EXPECT_EQ(pf.functions[0].name, "launch");
}

TEST(Parser, GlobalVariableFlags)
{
    ParsedFile pf = parseSource(
        "#include <mutex>\n"
        "namespace {\n"
        "std::mutex g_mutex;\n"
        "Guarded<std::vector<Spec>> g_specs;\n"
        "unsigned g_count = 0;\n"
        "const double kPi = 3.14;\n"
        "thread_local int t_scratch = 0;\n"
        "} // namespace\n");
    ASSERT_EQ(pf.globals.size(), 5u);
    const GlobalVar &mu = pf.globals[0];
    EXPECT_EQ(mu.name, "g_mutex");
    EXPECT_TRUE(mu.selfSynchronizing);
    const GlobalVar &specs = pf.globals[1];
    EXPECT_EQ(specs.name, "g_specs");
    EXPECT_TRUE(specs.selfSynchronizing);
    const GlobalVar &count = pf.globals[2];
    EXPECT_EQ(count.name, "g_count");
    EXPECT_FALSE(count.selfSynchronizing);
    EXPECT_FALSE(count.isConst);
    EXPECT_TRUE(pf.globals[3].isConst);
    EXPECT_TRUE(pf.globals[4].isThreadLocal);
}

TEST(Parser, OperatorEqualsDefinitionIsNotAVariable)
{
    // The lexer emits single-char puncts, so the '==' here once read
    // as "global variable 'Key' with an initializer" and tripped the
    // shared-state check on every out-of-line operator==.
    ParsedFile pf = parseSource(
        "bool\n"
        "Key::operator==(const Key &other) const\n"
        "{\n"
        "    return a == other.a;\n"
        "}\n"
        "bool\n"
        "Key::operator!=(const Key &other) const\n"
        "{\n"
        "    return !(*this == other);\n"
        "}\n");
    // Not indexed as functions either (the name token before '(' is
    // a punct) - the invariant is that no phantom global appears.
    EXPECT_TRUE(pf.globals.empty());
}

TEST(Parser, FunctionLocalStatic)
{
    ParsedFile pf = parseSource(
        "unsigned next()\n"
        "{\n"
        "    static unsigned counter = 0;\n"
        "    return ++counter;\n"
        "}\n");
    ASSERT_EQ(pf.globals.size(), 1u);
    EXPECT_EQ(pf.globals[0].name, "counter");
    EXPECT_TRUE(pf.globals[0].isFunctionLocal);
}

TEST(Parser, MultiLineDirectiveDoesNotDerailScopes)
{
    // A macro definition spanning continuation lines must be consumed
    // whole; the namespace after it must still be recognized (this
    // regressed once: the directive handler stopped at the first
    // token and the leftover soup swallowed `namespace snoop {`).
    ParsedFile pf = parseSource(
        "#define CHECK(x)     \\\n"
        "    do {             \\\n"
        "        probe(x);    \\\n"
        "    } while (0)\n"
        "namespace snoop {\n"
        "int after() { return 1; }\n"
        "} // namespace snoop\n");
    ASSERT_EQ(pf.functions.size(), 1u);
    EXPECT_EQ(pf.functions[0].name, "after");
}

TEST(Parser, MatchBracketNestsAllKinds)
{
    LexedFile lx = lex("f(a[b(c)], {d});");
    // Token 0 is `f`, token 1 is `(`.
    ASSERT_GT(lx.tokens.size(), 2u);
    size_t close = matchBracket(lx.tokens, 1);
    ASSERT_LT(close, lx.tokens.size());
    EXPECT_EQ(lx.tokens[close].text, ")");
    EXPECT_EQ(lx.tokens[close + 1].text, ";");
    // Unbalanced input degrades to tokens.size(), never a crash.
    LexedFile bad = lex("g(a, b");
    EXPECT_EQ(matchBracket(bad.tokens, 1), bad.tokens.size());
}

// --- numeric-guard-coverage ----------------------------------------

std::vector<Finding>
runOn(const std::string &path, const std::string &src)
{
    std::vector<Finding> out;
    runFileRules(path, path, lex(src), DeterminismRoster{}, out);
    return out;
}

TEST(NumericGuardCoverage, DirectGuardCovers)
{
    auto findings = runOn("src/mva/lane.cc",
                          "double finish()\n"
                          "{\n"
                          "    NumericGuard guard(\"finish\");\n"
                          "    return compute();\n"
                          "}\n");
    EXPECT_TRUE(findings.empty());
}

TEST(NumericGuardCoverage, SameFileValidatorCovers)
{
    // The validator's SolveError return type marks it as the
    // recoverable-validation idiom; routing through it satisfies the
    // boundary one level deep.
    auto findings = runOn("src/mva/lane.cc",
                          "std::optional<SolveError>\n"
                          "validateMvaResult(double v)\n"
                          "{\n"
                          "    return std::nullopt;\n"
                          "}\n"
                          "double finish()\n"
                          "{\n"
                          "    validateMvaResult(1.0);\n"
                          "    return 1.0;\n"
                          "}\n");
    EXPECT_TRUE(findings.empty());
}

TEST(NumericGuardCoverage, UnguardedBoundaryFires)
{
    auto findings = runOn("src/mva/lane.cc",
                          "double finish() { return compute(); }\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "numeric-guard-coverage");
    EXPECT_EQ(findings[0].line, 1u);
}

TEST(NumericGuardCoverage, UnvalidatingSameFileCalleeDoesNotCover)
{
    // The one hop only counts a callee that guards itself or returns
    // SolveError; a plain same-file helper does not.
    auto findings = runOn("src/mva/lane.cc",
                          "double compute() { return 1.0; }\n"
                          "double finish() { return compute(); }\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 2u);
    // Outside the boundary roster the same code is not checked.
    EXPECT_TRUE(runOn("src/mva/solver.cc",
                      "double finish() { return compute(); }\n")
                    .empty());
}

TEST(NumericGuardCoverage, RealLaneBoundaryIsCovered)
{
    // MvaLane::finish -> validateMvaResult, both in src/mva/lane.cc,
    // is the one user of the hop: the real file lints clean, and
    // renaming the validator's definition (so the call in finish no
    // longer names a same-file definition) makes the boundary fire.
    std::string src = slurp(std::string(SNOOP_SOURCE_ROOT) +
                            "/src/mva/lane.cc");
    EXPECT_TRUE(runOn("src/mva/lane.cc", src).empty());
    const std::string def = "\nvalidateMvaResult(";
    std::string cut = src;
    size_t at = cut.find(def);
    ASSERT_NE(at, std::string::npos);
    cut.replace(at, def.size(), "\nrenamedValidator_(");
    bool fired = false;
    for (const Finding &f : runOn("src/mva/lane.cc", cut))
        fired = fired || (f.rule == "numeric-guard-coverage" &&
                          f.message.find("finish") != std::string::npos);
    EXPECT_TRUE(fired);
}

} // namespace
