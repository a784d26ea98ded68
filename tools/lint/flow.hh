#pragma once

/**
 * @file
 * Flow-sensitive passes of snoop_analyze, built on the CFG
 * (lint/cfg.hh) and the worklist dataflow solver (lint/dataflow.hh).
 * Where the semantic passes (lint/semantic.hh) ask what a function
 * can reach, these ask what holds *along each path*, or (lockset)
 * what state parallel workers can reach:
 *
 *  - fp-determinism: inside the bit-identity-critical modules named
 *    by tools/lint/determinism.txt, flag libm transcendental calls
 *    outside the sanctioned deterministic kernels (mvaExp2), flag
 *    range-for iteration over unordered_map/unordered_set on any
 *    CFG path that reaches an output/serialization call (hash
 *    iteration order is not part of the bit-identity contract), and
 *    in kernel files flag accumulation-order hazards (std::reduce,
 *    execution policies, `+=` folded under an unordered iteration).
 *    Per-line opt-out: `// snoop-lint: fp-ok`.
 *
 *  - lockset: mutable globals that functions reachable from a
 *    parallelFor() launch (call graph) touch must be const,
 *    thread_local, or of a self-synchronizing type: std::atomic,
 *    std::mutex, ..., or Guarded<T> (src/util/guarded.hh). Which
 *    lock guards a Guarded value is the compiler's to check, not
 *    this pass's: the value is private behind lock(). Per-line
 *    opt-out: `// snoop-lint: lockset-ok`.
 *
 *  - expected-flow: path-sensitive unchecked-Expected. Each
 *    variable bound from a function whose every declaration returns
 *    Expected<...> walks the lattice {unchecked, checked-ok,
 *    checked-err}; branch edges on `r` / `r.ok()` refine the state,
 *    joins that disagree fall back to unchecked. A `.value()` read
 *    reachable on an unchecked or checked-err path is reported with
 *    that path. Two cases need no path and are found by a token
 *    walk of the body, so they fire even where the CFG degrades:
 *    `.value()` read straight off a call temporary, and a bound
 *    result that is never consulted. A result
 *    discarded as a bare statement is the compiler's to reject:
 *    Expected is [[nodiscard]] and the build passes
 *    -Werror=unused-result. Per-line opt-out:
 *    `// snoop-lint: expected-ok`.
 *
 * The path-sensitive passes share the conservative contract of the
 * stack they sit on: a degraded CFG or a non-converged solve silences
 * the function's path analysis rather than guessing. Fixture opt-in
 * mirrors the other passes: a basename starting with
 * bad_<rule>/good_<rule> joins that pass's scope regardless of path
 * (lint/lexer.hh fixtureOptsIn).
 */

#include <set>
#include <string>
#include <vector>

#include "lint/callgraph.hh"
#include "lint/report.hh"

namespace snoop::lint {

/**
 * The bit-identity roster parsed from tools/lint/determinism.txt.
 * Directives (one per line, '#' comments):
 *
 *     module <path-prefix>   # files under the prefix are in scope
 *     kernel <path>          # in scope + accumulation-order checks
 *     sanctioned <function>  # its body may use libm (it IS the
 *                            # deterministic replacement)
 */
struct DeterminismRoster {
    std::vector<std::string> modules;
    std::vector<std::string> kernels;
    std::set<std::string> sanctioned;

    /** True when @p file is under any module prefix or is a kernel. */
    bool memberFile(const std::string &file) const;
    /** True when @p file is listed as a kernel. */
    bool kernelFile(const std::string &file) const;

    /** Parse @p path. A missing file yields an empty roster (fixture
     * runs have no roster); a malformed directive sets @p error. */
    static DeterminismRoster load(const std::string &path,
                                  std::string *error);
};

/** Run the three flow-sensitive passes over @p files, using the
 * @p index and @p graph built from those same files. Findings come
 * back unsorted; the engine orders them. */
std::vector<Finding> runFlowPasses(const FileSet &files,
                                   const SymbolIndex &index,
                                   const CallGraph &graph,
                                   const DeterminismRoster &roster);

} // namespace snoop::lint
