#pragma once

/**
 * @file
 * Semantic passes of snoop_analyze: whole-program checks built on the
 * parser (lint/parser.hh), the cross-TU symbol index
 * (lint/symbols.hh), and the call graph (lint/callgraph.hh). Where
 * the per-file rules (lint/rules.hh) check what one line looks like,
 * these passes check what the program can *do*:
 *
 *  - fatal-reachability: no `fatal()` / `abort()` / `exit()` may be
 *    transitively reachable from a library entry point: every
 *    external-linkage function of src/mva/, src/core/ and
 *    util/csv.cc. The finding message carries the whole witness
 *    chain entry -> ... -> sink.
 *    This is the one check of the "library paths never exit"
 *    contract (util/expected.hh). Per-line opt-out:
 *    `// snoop-lint: fatal-ok` near the sink call.
 *
 *  - numeric-guard-coverage: the solver boundary functions (the
 *    kBoundaries roster in semantic.cc) must route results through
 *    NumericGuard / SNOOP_NUMERIC_CHECK, directly or via a same-file
 *    helper (a helper returning SolveError counts: that is the
 *    recoverable-validation idiom of mva/lane.cc).
 *
 *  - lockset: mutable globals that functions reachable from a
 *    parallelFor() launch (call graph) touch must be const,
 *    thread_local, or of a self-synchronizing type: std::atomic,
 *    std::mutex, ..., or Guarded<T> (src/util/guarded.hh). Which
 *    lock guards a Guarded value is the compiler's to check, not
 *    this pass's: the value is private behind lock(). Per-line
 *    opt-out: `// snoop-lint: lockset-ok`.
 *
 * fatal-reachability over-approximates call edges by name so a
 * missed path is impossible (a false path is refutable by reading
 * the reported chain). Fixture opt-in: a file whose basename starts
 * with bad_<rule> is placed in that pass's scope regardless of its
 * path (lint/lexer.hh fixtureOptsIn).
 */

#include <vector>

#include "lint/callgraph.hh"
#include "lint/report.hh"

namespace snoop::lint {

/** Run the three semantic passes over @p files (keys are repo-relative
 * paths, or basenames for fixture sets), using the @p index and
 * @p graph built from those same files. Findings come back
 * unsorted; the engine orders them. */
std::vector<Finding> runSemanticPasses(const FileSet &files,
                                       const SymbolIndex &index,
                                       const CallGraph &graph);

} // namespace snoop::lint
