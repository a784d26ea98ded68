#pragma once

/**
 * @file
 * Concurrency annotations checked by snoop_analyze (tools/lint/), not
 * by the compiler.
 *
 * SNOOP_GUARDED_BY(mutex) documents, on the declaration of mutable
 * namespace-scope or function-local-static state, which mutex
 * serializes access to it. The linter's lockset pass
 * (docs/ANALYSIS.md) requires the annotation on any such state
 * reachable from parallelFor workers, and requires every access to
 * happen on a path where the mutex is held — by a lock_guard /
 * unique_lock / lock() in scope, or by a "Caller holds X." comment
 * above the accessing function.
 *
 * SNOOP_GUARDED_BY(internal) is the special form for objects that
 * synchronize themselves behind their own member mutex (e.g. the
 * MetricsRegistry singleton): the pass then demands nothing of its
 * accesses.
 *
 * The macro expands to nothing: unlike clang's
 * __attribute__((guarded_by)), it needs no compiler support and never
 * changes codegen, so it is safe on every toolchain this tree builds
 * with. The linter reads it straight out of the declaration's tokens.
 *
 * @code
 *   std::mutex g_mutex;
 *   std::vector<Event> g_events SNOOP_GUARDED_BY(g_mutex);
 *   static MetricsRegistry registry SNOOP_GUARDED_BY(internal);
 * @endcode
 */

#define SNOOP_GUARDED_BY(mutex)
