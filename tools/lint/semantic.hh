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
 *    transitively reachable from a `try*` solver entry point
 *    (src/mva, src/core, src/util/fixed_point.cc). Supersedes the
 *    direct-call no-fatal-in-solver rule in capability: the finding
 *    message carries the whole witness chain entry -> ... -> sink.
 *    Per-line opt-out: `// snoop-lint: fatal-ok` near the sink call.
 *
 *  - unchecked-expected: flow-sensitive, within-function tracking of
 *    calls to functions whose every declaration returns Expected<...>.
 *    Flags results that are discarded as bare statements, bound to a
 *    variable that is never consulted, or read through .value()
 *    without any ok()/error() check.
 *
 *  - guarded-shared-state: mutable namespace-scope / function-local
 *    static state accessed by functions reachable from a
 *    parallelFor() call site must carry SNOOP_GUARDED_BY(mutex)
 *    (src/util/annotations.hh), and each accessing function must
 *    name that mutex (in code or in a nearby comment, the
 *    "caller holds X" idiom). SNOOP_GUARDED_BY(internal) asserts the
 *    object synchronizes itself. const, thread_local, and
 *    self-synchronizing types (std::atomic, std::mutex, ...) are
 *    exempt.
 *
 *  - numeric-guard-coverage: the solver boundary functions (the
 *    kBoundaries roster in semantic.cc) must route results through
 *    NumericGuard / SNOOP_NUMERIC_CHECK, directly or via a same-file
 *    helper (a helper returning SolveError counts: that is the
 *    recoverable-validation idiom of mva/lane.cc).
 *
 * All passes are conservative in the same direction: where the
 * parser's view is incomplete they stay silent, except
 * fatal-reachability, which over-approximates call edges by name so
 * a missed path is impossible (a false path is refutable by reading
 * the reported chain).
 *
 * Fixture opt-in mirrors the per-file rules: a file whose basename
 * starts with bad_<rule> is placed in that pass's scope regardless of
 * its path.
 */

#include <vector>

#include "lint/include_graph.hh"
#include "lint/report.hh"

namespace snoop::lint {

/** Run all four semantic passes over @p files (keys are
 * repo-relative paths, or basenames for fixture sets). Findings come
 * back unsorted; the engine orders and baselines them. */
std::vector<Finding> runSemanticPasses(const FileSet &files);

} // namespace snoop::lint
