// Compile fixture for the lint/guarded ctest: the accesses the old
// must-hold lockset pass reported, written against Guarded<T>. The
// compiler must reject the unlocked write, the read on the branch
// that skipped lock(), and a reference that would outlive its lock.

#include "util/guarded.hh"

namespace {

snoop::Guarded<unsigned> g_samples;

} // namespace

void
recordSample(unsigned v)
{
    g_samples.value_ += v; // no lock taken
}

unsigned
flushSamples(bool fast)
{
    if (!fast) {
        auto samples = g_samples.lock();
        return *samples;
    }
    return g_samples.value_; // the fast path skipped lock()
}

unsigned &
peekSamples()
{
    unsigned &v = *g_samples.lock(); // the lock dies at the ';'
    return v;
}
