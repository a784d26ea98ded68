// Clean fixture for the lockset pass on worker-reachable state:
// g_total carries SNOOP_GUARDED_BY(g_mutex) and the parallelFor
// worker's accessor holds g_mutex, so the pass must stay silent.

#include <mutex>

#include "util/annotations.hh"
#include "util/parallel.hh"

namespace snoop {

namespace {

std::mutex g_mutex;
unsigned g_total SNOOP_GUARDED_BY(g_mutex) = 0;

void
addSample(unsigned v)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    g_total += v;
}

} // namespace

void
accumulate(unsigned n)
{
    parallelFor(n, [](size_t i) { addSample(static_cast<unsigned>(i)); });
}

} // namespace snoop
