/**
 * @file
 * Golden-dump tests for the statement-level CFG builder
 * (tools/lint/cfg.{hh,cc}): if/else, loops with break/continue,
 * switch fallthrough, early return, short-circuit lowering,
 * range-for headers, and the degraded single-block fallback. The
 * dump format (dumpCfg) is a contract — the flow passes' witness
 * paths and these goldens both read block ids and statement lines
 * from it, so a builder change that reshapes a graph must show up
 * here as a diff, not as silent pass drift.
 */

#include <gtest/gtest.h>

#include <string>

#include "lint/cfg.hh"
#include "lint/lexer.hh"
#include "lint/parser.hh"

using namespace snoop::lint;

namespace {

/** Build the CFG of the only function in @p src and dump it. */
std::string
dumpOf(const std::string &src, Cfg *out = nullptr)
{
    LexedFile lf = lex(src);
    ParsedFile pf = parseFile(lf);
    if (pf.functions.size() != 1)
        return "no function parsed";
    Cfg cfg = buildCfg(lf, pf.functions[0]);
    if (out)
        *out = cfg;
    return dumpCfg(cfg);
}

TEST(Cfg, IfElseJoins)
{
    EXPECT_EQ(dumpOf("int f(int a)\n"
                     "{\n"
                     "    if (a > 0) {\n"
                     "        a = 1;\n"
                     "    } else {\n"
                     "        a = 2;\n"
                     "    }\n"
                     "    return a;\n"
                     "}\n"),
              "entry=B0 exit=B1\n"
              "B0: S@3 ?[L3] T->B2 F->B4\n"
              "B1:\n"
              "B2: S@4 ->B3\n"
              "B3: R@8 ->B1\n"
              "B4: S@6 ->B3\n");
}

TEST(Cfg, WhileWithBreakAndContinue)
{
    // break edges to the block after the loop (B4), continue back to
    // the header (B2); the body's end also re-enters the header.
    EXPECT_EQ(dumpOf("int f(int n)\n"
                     "{\n"
                     "    int s = 0;\n"
                     "    while (n > 0) {\n"
                     "        if (n == 3)\n"
                     "            break;\n"
                     "        if (n == 4)\n"
                     "            continue;\n"
                     "        s += n;\n"
                     "        n--;\n"
                     "    }\n"
                     "    return s;\n"
                     "}\n"),
              "entry=B0 exit=B1\n"
              "B0: S@3 ->B2\n"
              "B1:\n"
              "B2: S@4 ?[L4] T->B3 F->B4\n"
              "B3: S@5 ?[L5] T->B5 F->B6\n"
              "B4: R@12 ->B1\n"
              "B5: B@6 ->B4\n"
              "B6: S@7 ?[L7] T->B7 F->B8\n"
              "B7: C@8 ->B2\n"
              "B8: S@9 S@10 ->B2\n");
}

TEST(Cfg, SwitchFallthroughAndDefault)
{
    // The selector block fans out to every case entry; case 1 falls
    // through into case 2 (B4 -> B5); breaks edge past the switch.
    EXPECT_EQ(dumpOf("int f(int c)\n"
                     "{\n"
                     "    int r = 0;\n"
                     "    switch (c) {\n"
                     "    case 0:\n"
                     "        r = 1;\n"
                     "        break;\n"
                     "    case 1:\n"
                     "        r = 2;\n"
                     "        // fallthrough\n"
                     "    case 2:\n"
                     "        r += 3;\n"
                     "        break;\n"
                     "    default:\n"
                     "        r = 9;\n"
                     "    }\n"
                     "    return r;\n"
                     "}\n"),
              "entry=B0 exit=B1\n"
              "B0: S@3 S@4 ->B3 ->B4 ->B5 ->B6\n"
              "B1:\n"
              "B2: R@17 ->B1\n"
              "B3: S@6 B@7 ->B2\n"
              "B4: S@9 ->B5\n"
              "B5: S@12 B@13 ->B2\n"
              "B6: S@15 ->B2\n");
}

TEST(Cfg, EarlyReturnEdgesToExit)
{
    EXPECT_EQ(dumpOf("int f(int a)\n"
                     "{\n"
                     "    if (a < 0)\n"
                     "        return -1;\n"
                     "    return a;\n"
                     "}\n"),
              "entry=B0 exit=B1\n"
              "B0: S@3 ?[L3] T->B2 F->B3\n"
              "B1:\n"
              "B2: R@4 ->B1\n"
              "B3: R@5 ->B1\n");
}

TEST(Cfg, ShortCircuitAndLowersToCondChain)
{
    // `a > 0 && b > 0` becomes two atomic-condition blocks: the first
    // tests `a > 0` (False short-circuits to the else path B3), the
    // second (B4) tests `b > 0`.
    EXPECT_EQ(dumpOf("int f(int a, int b)\n"
                     "{\n"
                     "    if (a > 0 && b > 0)\n"
                     "        return 1;\n"
                     "    return 0;\n"
                     "}\n"),
              "entry=B0 exit=B1\n"
              "B0: S@3 ?[L3] T->B4 F->B3\n"
              "B1:\n"
              "B2: R@4 ->B1\n"
              "B3: R@5 ->B1\n"
              "B4: S@3 ?[L3] T->B2 F->B3\n");
}

TEST(Cfg, RangeForHeaderKeepsItsKind)
{
    Cfg cfg;
    EXPECT_EQ(dumpOf("int f(const std::vector<int> &v)\n"
                     "{\n"
                     "    int s = 0;\n"
                     "    for (const auto &x : v)\n"
                     "        s += x;\n"
                     "    return s;\n"
                     "}\n",
                     &cfg),
              "entry=B0 exit=B1\n"
              "B0: S@3 ->B3\n"
              "B1:\n"
              "B2: R@6 ->B1\n"
              "B3: F@4 ->B4 ->B2\n"
              "B4: S@5 ->B3\n");
    // The header statement is findable by kind, not just by letter.
    bool sawRangeFor = false;
    for (const CfgBlock &b : cfg.blocks)
        for (const CfgStmt &s : b.stmts)
            sawRangeFor = sawRangeFor || s.kind == StmtKind::RangeFor;
    EXPECT_TRUE(sawRangeFor);
}

TEST(Cfg, GotoDegradesToSingleBlock)
{
    Cfg cfg;
    std::string dump = dumpOf("int f(int a)\n"
                              "{\n"
                              "    if (a)\n"
                              "        goto done;\n"
                              "    a = 1;\n"
                              "done:\n"
                              "    return a;\n"
                              "}\n",
                              &cfg);
    EXPECT_TRUE(cfg.degraded);
    EXPECT_NE(dump.find("degraded"), std::string::npos);
    // One linear block plus the exit; no invented control flow.
    EXPECT_EQ(cfg.blocks.size(), 2u);
}

TEST(Cfg, ReachableAndPathHelpers)
{
    Cfg cfg;
    dumpOf("int f(int a)\n"
           "{\n"
           "    if (a < 0)\n"
           "        return -1;\n"
           "    return a;\n"
           "}\n",
           &cfg);
    // Every block survives pruning, so all are reachable.
    EXPECT_EQ(reachableBlocks(cfg).size(), cfg.blocks.size());
    // The early-return block (B2) is reached via the entry.
    std::vector<size_t> path = pathToBlock(cfg, 2);
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(path[0], cfg.entry);
    EXPECT_EQ(path[1], 2u);
}

} // namespace
