// Clean fixture for the lockset pass on worker-reachable state:
// g_total is a Guarded<unsigned>, whose value no code can reach
// without its lock, so the pass must stay silent.

#include "util/guarded.hh"
#include "util/parallel.hh"

namespace snoop {

namespace {

Guarded<unsigned> g_total;

void
addSample(unsigned v)
{
    auto total = g_total.lock();
    *total += v;
}

} // namespace

void
accumulate(unsigned n)
{
    parallelFor(n, [](size_t i) { addSample(static_cast<unsigned>(i)); });
}

} // namespace snoop
