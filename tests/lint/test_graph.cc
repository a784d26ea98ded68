/**
 * @file
 * Include-graph pass tests: the layers.txt parser, the layering
 * check on the checked-in synthetic fixture trees (forbidden
 * util -> core edge, include cycle), exported-name extraction for
 * the IWYU-lite heuristic, and — the contract that matters day to
 * day — the real repository's src/ running clean against the real
 * tools/lint/layers.txt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/engine.hh"
#include "lint/include_graph.hh"
#include "lint/lexer.hh"

using namespace snoop::lint;

namespace {

const char *kFixtures = SNOOP_LINT_FIXTURES;
const char *kSourceRoot = SNOOP_SOURCE_ROOT;

std::vector<Finding>
lintTree(const std::string &root)
{
    LintOptions opt;
    opt.root = root;
    opt.paths = {root + "/src"};
    opt.treePasses = true;
    LintResult r = runLint(opt);
    EXPECT_TRUE(r.errors.empty());
    return r.findings;
}

std::vector<Finding>
byRule(const std::vector<Finding> &all, const std::string &rule)
{
    std::vector<Finding> out;
    for (const Finding &f : all)
        if (f.rule == rule)
            out.push_back(f);
    return out;
}

TEST(Layers, ParseGroupsAndRanks)
{
    Layers layers;
    std::string err;
    ASSERT_TRUE(Layers::parse("# comment\n"
                              "util observe\n"
                              "\n"
                              "mva\n"
                              "core # trailing comment\n",
                              &layers, &err))
        << err;
    ASSERT_EQ(layers.groups.size(), 3u);
    EXPECT_EQ(layers.rank.at("util"), 0u);
    EXPECT_EQ(layers.rank.at("observe"), 0u);
    EXPECT_EQ(layers.rank.at("mva"), 1u);
    EXPECT_EQ(layers.rank.at("core"), 2u);
}

TEST(Layers, RejectsDuplicateAndEmpty)
{
    Layers layers;
    std::string err;
    EXPECT_FALSE(Layers::parse("util\nutil\n", &layers, &err));
    EXPECT_NE(err.find("twice"), std::string::npos);
    EXPECT_FALSE(Layers::parse("# only comments\n", &layers, &err));
}

TEST(Layers, ModuleOf)
{
    EXPECT_EQ(moduleOf("src/mva/solver.cc"), "mva");
    EXPECT_EQ(moduleOf("src/util/logging.hh"), "util");
    EXPECT_EQ(moduleOf("tools/snoop_lint.cc"), "");
    EXPECT_EQ(moduleOf("src/orphan.cc"), "");
}

TEST(LayeringFixtures, ForbiddenUpwardEdgeFires)
{
    auto findings =
        byRule(lintTree(std::string(kFixtures) + "/tree_badedge"),
               "layering");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "src/util/climber.cc");
    EXPECT_EQ(findings[0].line, 4u);
    EXPECT_NE(findings[0].message.find("core/api.hh"),
              std::string::npos);
}

TEST(LayeringFixtures, IncludeCycleFires)
{
    auto findings =
        byRule(lintTree(std::string(kFixtures) + "/tree_cycle"),
               "layering");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("include cycle"),
              std::string::npos);
    EXPECT_NE(findings[0].message.find("ring_a"), std::string::npos);
    EXPECT_NE(findings[0].message.find("ring_b"), std::string::npos);
}

TEST(LayeringFixtures, SameLayerEdgeIsAllowed)
{
    // In tree_cycle both files sit in layer "util": the only finding
    // is the cycle, not the edge itself.
    auto findings = lintTree(std::string(kFixtures) + "/tree_cycle");
    for (const Finding &f : findings)
        EXPECT_EQ(f.message.find("reaches up"), std::string::npos)
            << f.message;
}

TEST(LayeringFixtures, UnknownModuleIsReported)
{
    Layers layers;
    std::string err;
    ASSERT_TRUE(Layers::parse("util\n", &layers, &err));
    FileSet files;
    files.emplace("src/util/a.cc", lex("#include \"mystery/x.hh\"\n"));
    files.emplace("src/mystery/x.hh", lex("#pragma once\n"));
    auto findings = checkLayering(files, layers);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings[0].message.find("mystery"), std::string::npos);
    EXPECT_NE(findings[0].message.find("layers.txt"),
              std::string::npos);
}

TEST(ExportedNames, CapturesDeclarations)
{
    LexedFile h = lex("#pragma once\n"
                      "#define WIDTH_MAX 4\n"
                      "class Gadget;\n"
                      "struct Widget { int n; };\n"
                      "enum class Mode { Fast, Slow };\n"
                      "using Alias = int;\n"
                      "int probe(int x);\n"
                      "constexpr int kLimit = 3;\n");
    auto names = exportedNames(h);
    EXPECT_TRUE(names.count("WIDTH_MAX"));
    EXPECT_TRUE(names.count("Gadget"));
    EXPECT_TRUE(names.count("Widget"));
    EXPECT_TRUE(names.count("Mode"));
    EXPECT_TRUE(names.count("Fast"));
    EXPECT_TRUE(names.count("Slow"));
    EXPECT_TRUE(names.count("Alias"));
    EXPECT_TRUE(names.count("probe"));
    EXPECT_TRUE(names.count("kLimit"));
    // Keywords never become exported names.
    EXPECT_FALSE(names.count("class"));
    EXPECT_FALSE(names.count("enum"));
}

TEST(RealTree, SrcIsLayerCleanAgainstDeclaredDag)
{
    // The acceptance contract: the real src/ tree, the real
    // layers.txt, zero layering findings (the util <-> observe cycle
    // is sanctioned by sharing a layer).
    LintOptions opt;
    opt.root = kSourceRoot;
    opt.paths = {std::string(kSourceRoot) + "/src"};
    opt.treePasses = true;
    LintResult r = runLint(opt);
    EXPECT_TRUE(r.errors.empty());
    for (const Finding &f : byRule(r.findings, "layering"))
        ADD_FAILURE() << f.file << ":" << f.line << ": " << f.message;
}

TEST(RealTree, FullLintIsClean)
{
    // End-to-end: the shipped configuration (allowlist included) must
    // be clean over src/ — same invariant run_lint.sh enforces in CI,
    // checked here so `ctest -R lint/graph` catches it locally too.
    LintOptions opt;
    opt.root = kSourceRoot;
    opt.paths = {std::string(kSourceRoot) + "/src"};
    opt.treePasses = true;
    LintResult r = runLint(opt);
    EXPECT_TRUE(r.errors.empty());
    for (const Finding &f : r.findings)
        ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule
                      << "] " << f.message;
}

} // namespace
