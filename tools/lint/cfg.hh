#pragma once

/**
 * @file
 * Statement-level intraprocedural control-flow graph of
 * snoop_analyze: the layer between the declaration parser
 * (lint/parser.hh) and the flow-sensitive passes (lint/flow.hh).
 * Where the call graph (lint/callgraph.hh) answers "what can this
 * function reach", the CFG answers "along which paths" — the
 * question the fp-determinism and Expected-flow passes need.
 *
 * The builder walks one FunctionDef's body token range and recovers:
 *
 *  - basic blocks of statements (each statement a token range, so
 *    passes pattern-match tokens directly);
 *  - if/else with short-circuit lowering: a condition `a && b` or
 *    `a || b` is decomposed into a chain of single-condition blocks,
 *    so an edge transfer sees atomic conditions like `r.ok()`;
 *  - while / do-while / classic for / range-for (the range-for
 *    header keeps its own statement kind so iteration-order passes
 *    can find it), with break/continue resolved to their targets;
 *  - switch with case fallthrough and default;
 *  - early return (edges to the exit block);
 *  - try/catch (the catch body is an alternative successor of the
 *    statement before the try — conservative: an exception may skip
 *    any prefix of the try body).
 *
 * The builder is total in the same sense as the parser: on any
 * construct it cannot classify (goto, statement labels, unbalanced
 * brackets) it degrades to a single-block CFG holding every
 * statement, flagged `degraded`, so a pass can choose silence over
 * guessing — the pass never hard-fails on real code.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "lint/lexer.hh"
#include "lint/parser.hh"

namespace snoop::lint {

/** What a CFG statement is, where the distinction matters to a
 * pass. Plain covers everything else (expressions, declarations). */
enum class StmtKind {
    Plain,
    Return,   //!< return statement (block edges to exit)
    Break,    //!< break (edge to loop/switch exit)
    Continue, //!< continue (edge to loop header / increment)
    RangeFor, //!< range-for header `(decl : expr)` token range
};

/** One statement: a token range [begin, end) into the lexed file. */
struct CfgStmt {
    size_t begin = 0;
    size_t end = 0;
    size_t line = 0; //!< line of the first token
    StmtKind kind = StmtKind::Plain;
};

enum class EdgeKind {
    Next,  //!< unconditional fallthrough (or one of a switch fan-out)
    True,  //!< branch taken when the block's condition holds
    False, //!< branch taken when it does not
};

struct CfgEdge {
    size_t to = 0;
    EdgeKind kind = EdgeKind::Next;
};

/** One basic block. When the block ends in a branch, [condBegin,
 * condEnd) is the token range of the (atomic, post-short-circuit-
 * lowering) condition its True/False edges test; both are 0 when the
 * block ends unconditionally. */
struct CfgBlock {
    std::vector<CfgStmt> stmts;
    std::vector<CfgEdge> succs;
    size_t condBegin = 0;
    size_t condEnd = 0;
    size_t condLine = 0; //!< line of the condition's first token

    bool hasCond() const { return condEnd > condBegin; }
};

/** A function's CFG. `blocks[entry]` starts the function,
 * `blocks[exit]` is the single synthetic exit (always empty, no
 * successors). Unreachable blocks are pruned, so every id is live. */
struct Cfg {
    std::vector<CfgBlock> blocks;
    size_t entry = 0;
    size_t exit = 0;
    /** True when the builder hit a construct it cannot model (goto,
     * labels, unbalanced brackets) and fell back to one linear block
     * of statements. Passes should prefer silence on degraded CFGs. */
    bool degraded = false;
};

/** Build the CFG of @p def's body. Never fails: returns a degraded
 * single-block CFG when the body cannot be modeled. */
Cfg buildCfg(const LexedFile &file, const FunctionDef &def);

/**
 * Deterministic text rendering for golden tests and debugging:
 *
 *     entry=B0 exit=B3
 *     B0: S@2 S@3 ?[L3] T->B1 F->B2
 *     B1: R@4 ->B3
 *     ...
 *
 * Statements render as <kind letter>@<line> (S plain, R return,
 * B break, C continue, F range-for); `?[L<line>]` names
 * the line of the block's condition.
 */
std::string dumpCfg(const Cfg &cfg);

/** Blocks reachable from @p cfg.entry (sorted ids; entry included). */
std::vector<size_t> reachableBlocks(const Cfg &cfg);

/** Shortest entry -> @p target block path (BFS over edges), or empty
 * when unreachable. Used by passes to render witness paths. */
std::vector<size_t> pathToBlock(const Cfg &cfg, size_t target);

} // namespace snoop::lint
