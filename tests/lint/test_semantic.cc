/**
 * @file
 * Semantic-layer tests: the declaration/definition parser
 * (lint/parser.hh), the cross-TU symbol index (lint/symbols.hh), the
 * call graph with its resolution policy (lint/callgraph.hh), and the
 * fatal-reachability and numeric-guard-coverage passes
 * (lint/semantic.hh) driven over synthetic FileSets; the lockset
 * pass has its own tests in test_flow.cc. The fixture suite (test_rules.cc / run_lint.sh) proves
 * the passes fire end-to-end; these tests pin the layer contracts —
 * scope tracking, linkage restrictions, and witness chains — that
 * the fixtures rely on.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/callgraph.hh"
#include "lint/parser.hh"
#include "lint/semantic.hh"
#include "lint/symbols.hh"

using namespace snoop::lint;

namespace {

ParsedFile
parseSource(const std::string &src)
{
    return parseFile(lex(src));
}

FileSet
makeFiles(std::vector<std::pair<std::string, std::string>> sources)
{
    FileSet files;
    for (auto &[path, src] : sources)
        files.emplace(path, lex(src));
    return files;
}

const FunctionDef *
findDef(const ParsedFile &pf, const std::string &qualified)
{
    for (const FunctionDef &def : pf.functions)
        if (def.qualified == qualified)
            return &def;
    return nullptr;
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
    EXPECT_FALSE(def.fileLocal);
    EXPECT_LT(def.bodyBegin, def.bodyEnd);
}

TEST(Parser, AnonymousNamespaceAndStaticAreFileLocal)
{
    ParsedFile pf = parseSource(
        "namespace {\n"
        "int helper() { return 1; }\n"
        "} // namespace\n"
        "static int quiet() { return 2; }\n"
        "int exported() { return 3; }\n");
    ASSERT_EQ(pf.functions.size(), 3u);
    EXPECT_TRUE(findDef(pf, "helper")->fileLocal);
    EXPECT_TRUE(findDef(pf, "quiet")->fileLocal);
    EXPECT_FALSE(findDef(pf, "exported")->fileLocal);
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

// --- symbol index ----------------------------------------------------

TEST(SymbolIndex, DefinitionsAreFoundByName)
{
    FileSet files = makeFiles({
        {"src/a.cc",
         "Expected<void> check();\n"
         "void validate() { }\n"},
        {"src/b.cc",
         "Expected<void> check() { return {}; }\n"
         "Expected<void> validate() { return {}; }\n"},
    });
    SymbolIndex index = SymbolIndex::build(files);
    // A declaration is not a definition.
    ASSERT_EQ(index.definitionsOf("check").size(), 1u);
    EXPECT_EQ(index.definitionsOf("check")[0]->file, "src/b.cc");
    EXPECT_EQ(index.definitionsOf("validate").size(), 2u);
    EXPECT_TRUE(index.definitionsOf("unknown").empty());
}

// --- call graph ------------------------------------------------------

size_t
nodeOf(const SymbolIndex &index, const std::string &file,
       const std::string &name)
{
    const auto &funcs = index.functions();
    for (size_t i = 0; i < funcs.size(); ++i)
        if (funcs[i].file == file && funcs[i].def.name == name)
            return i;
    ADD_FAILURE() << file << ":" << name << " not indexed";
    return 0;
}

bool
hasEdge(const CallGraph &g, size_t from, size_t to)
{
    for (size_t next : g.edgesOf(from))
        if (next == to)
            return true;
    return false;
}

TEST(CallGraph, FileLocalDefinitionsResolveSameFileOnly)
{
    FileSet files = makeFiles({
        {"src/a.cc",
         "namespace { int split() { return 1; } }\n"
         "int useA() { return split(); }\n"},
        {"src/b.cc",
         "int useB() { return split(); }\n"},
    });
    SymbolIndex index = SymbolIndex::build(files);
    CallGraph g = CallGraph::build(index, files);
    size_t split_a = nodeOf(index, "src/a.cc", "split");
    EXPECT_TRUE(hasEdge(g, nodeOf(index, "src/a.cc", "useA"), split_a));
    // b.cc's `split` cannot be a.cc's internal-linkage helper.
    EXPECT_FALSE(hasEdge(g, nodeOf(index, "src/b.cc", "useB"), split_a));
}

TEST(CallGraph, MemberCallsNeverResolveToFreeFunctions)
{
    FileSet files = makeFiles({
        {"src/a.cc",
         "int render() { return 1; }\n"
         "int go(Widget &w) { return w.render(); }\n"},
    });
    SymbolIndex index = SymbolIndex::build(files);
    CallGraph g = CallGraph::build(index, files);
    EXPECT_FALSE(hasEdge(g, nodeOf(index, "src/a.cc", "go"),
                         nodeOf(index, "src/a.cc", "render")));
    // The call site itself is still recorded for name-based passes.
    bool saw = false;
    for (const CallSite &site :
         g.callsOf(nodeOf(index, "src/a.cc", "go")))
        saw = saw || site.callee == "render";
    EXPECT_TRUE(saw);
}

TEST(CallGraph, CallbackArgumentsCreateEdges)
{
    FileSet files = makeFiles({
        {"src/a.cc",
         "void loadImpl() { }\n"
         "void load() { std::call_once(g_flag, loadImpl); }\n"},
    });
    SymbolIndex index = SymbolIndex::build(files);
    CallGraph g = CallGraph::build(index, files);
    EXPECT_TRUE(hasEdge(g, nodeOf(index, "src/a.cc", "load"),
                        nodeOf(index, "src/a.cc", "loadImpl")));
}

TEST(CallGraph, FindPathReturnsWitnessChain)
{
    FileSet files = makeFiles({
        {"src/a.cc",
         "void deep() { }\n"
         "void mid() { deep(); }\n"
         "void top() { mid(); }\n"},
    });
    SymbolIndex index = SymbolIndex::build(files);
    CallGraph g = CallGraph::build(index, files);
    size_t top = nodeOf(index, "src/a.cc", "top");
    size_t mid = nodeOf(index, "src/a.cc", "mid");
    size_t deep = nodeOf(index, "src/a.cc", "deep");
    auto chain = g.findPath(top, [&](size_t n) { return n == deep; });
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_EQ(chain[0], top);
    EXPECT_EQ(chain[1], mid);
    EXPECT_EQ(chain[2], deep);
    EXPECT_TRUE(
        g.findPath(deep, [&](size_t n) { return n == top; }).empty());
}

// --- semantic passes -------------------------------------------------

std::vector<Finding>
runOn(std::vector<std::pair<std::string, std::string>> sources)
{
    FileSet files = makeFiles(std::move(sources));
    SymbolIndex index = SymbolIndex::build(files);
    return runSemanticPasses(files, index, CallGraph::build(index, files));
}

TEST(FatalReachability, WitnessChainInMessage)
{
    // src/core/ is entry scope but not a numeric-guard boundary, so
    // only the fatal pass speaks here.
    auto findings = runOn({
        {"src/core/run.cc",
         "namespace {\n"
         "void inner() { fatal(\"boom\"); }\n"
         "}\n"
         "int tryRun() { inner(); return 0; }\n"},
    });
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "fatal-reachability");
    EXPECT_NE(findings[0].message.find("tryRun -> inner -> fatal()"),
              std::string::npos)
        << findings[0].message;
    EXPECT_NE(findings[0].message.find("src/core/run.cc:2"),
              std::string::npos);
}

TEST(FatalReachability, EveryExternalLibraryFunctionIsAnEntry)
{
    // Library files need no try* prefix: a public function that
    // reaches fatal() fires; its file-local helper is not reported
    // again as an entry of its own.
    for (const char *path :
         {"src/core/solve_for.cc", "src/core/report.cc",
          "src/core/paper_data.cc", "src/mva/solver.cc",
          "src/util/csv.cc"}) {
        auto findings = runOn({
            {path, "namespace {\n"
                   "void check() { fatal(\"boom\"); }\n"
                   "}\n"
                   "double solveCell() { check(); return 0; }\n"},
        });
        ASSERT_EQ(findings.size(), 1u) << path;
        EXPECT_EQ(findings[0].line, 4u);
        EXPECT_NE(findings[0].message.find("solveCell -> check"),
                  std::string::npos)
            << findings[0].message;
    }
    // Outside the library files nothing is an entry.
    EXPECT_TRUE(runOn({{"src/sim/trace.cc",
                        "void writeAll() { fatal(\"boom\"); }\n"}})
                    .empty());
}

TEST(FatalReachability, FatalPlantedInTheReportWriterFires)
{
    // src/core/ holds no fatal(): the real report.cc lints clean, and
    // a fatal() planted in generateReport is reported at its entry.
    std::ifstream in(std::string(SNOOP_SOURCE_ROOT) + "/src/core/report.cc");
    std::stringstream ss;
    ss << in.rdbuf();
    std::string src = ss.str();
    EXPECT_TRUE(runOn({{"src/core/report.cc", src}}).empty());

    const std::string body = "generateReport(const ReportSpec &spec)\n{\n";
    size_t at = src.find(body);
    ASSERT_NE(at, std::string::npos);
    src.insert(at + body.size(), "    fatal(\"planted\");\n");
    auto findings = runOn({{"src/core/report.cc", src}});
    ASSERT_FALSE(findings.empty());
    EXPECT_EQ(findings[0].rule, "fatal-reachability");
    EXPECT_NE(findings[0].message.find("generateReport -> fatal()"),
              std::string::npos)
        << findings[0].message;
}

TEST(FatalReachability, MarkerSuppressesTheSink)
{
    auto findings = runOn({
        {"src/core/run.cc",
         "namespace {\n"
         "// snoop-lint: fatal-ok\n"
         "void inner() { fatal(\"boom\"); }\n"
         "}\n"
         "int tryRun() { inner(); return 0; }\n"},
    });
    EXPECT_TRUE(findings.empty());
}

TEST(NumericGuardCoverage, DirectGuardCovers)
{
    auto findings = runOn({
        {"src/mva/lane.cc",
         "double finish()\n"
         "{\n"
         "    NumericGuard guard(\"finish\");\n"
         "    return compute();\n"
         "}\n"},
    });
    EXPECT_TRUE(findings.empty());
}

TEST(NumericGuardCoverage, SameFileValidatorCovers)
{
    // The validator's SolveError return type marks it as the
    // recoverable-validation idiom; routing through it satisfies the
    // boundary one level deep.
    auto findings = runOn({
        {"src/mva/lane.cc",
         "std::optional<SolveError>\n"
         "validateMvaResult(double v)\n"
         "{\n"
         "    return std::nullopt;\n"
         "}\n"
         "double finish()\n"
         "{\n"
         "    validateMvaResult(1.0);\n"
         "    return 1.0;\n"
         "}\n"},
    });
    EXPECT_TRUE(findings.empty());
}

TEST(NumericGuardCoverage, UnguardedBoundaryFires)
{
    auto findings = runOn({
        {"src/mva/lane.cc",
         "double finish() { return compute(); }\n"},
    });
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "numeric-guard-coverage");
}

} // namespace
