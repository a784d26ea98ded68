// Negative fixture for the lockset pass on unannotated state: g_hits
// is mutable namespace-scope state, bumpCounter touches it, and
// runSweep launches the parallelFor worker that reaches bumpCounter
// -- all without a SNOOP_GUARDED_BY annotation to check locks by.

#include "util/parallel.hh"

namespace snoop {

namespace {

unsigned g_hits = 0; // must fire: unannotated worker-reachable state

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
