// Negative fixture for the lockset pass on unguarded state: g_hits
// is mutable namespace-scope state, bumpCounter touches it, and
// runSweep launches the parallelFor worker that reaches bumpCounter
// -- and g_hits is neither const, thread_local nor Guarded.

#include "util/parallel.hh"

namespace snoop {

namespace {

unsigned g_hits = 0; // must fire: unguarded worker-reachable state

void
bumpCounter()
{
    ++g_hits;
}

} // namespace

void
runSweep(unsigned n)
{
    parallelFor(n, [](size_t) { bumpCounter(); });
}

} // namespace snoop
