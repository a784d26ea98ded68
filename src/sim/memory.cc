#include "sim/memory.hh"

#include <algorithm>

#include "util/contracts.hh"
#include "util/logging.hh"

namespace snoop {

MemoryModules::MemoryModules(int num_modules, double latency)
    : latency_(latency)
{
    SNOOP_REQUIRE(num_modules >= 1,
                  "MemoryModules: need at least one module");
    SNOOP_REQUIRE(latency > 0.0,
                  "MemoryModules: latency must be positive");
    freeAt_.assign(static_cast<size_t>(num_modules), 0.0);
}

double
MemoryModules::occupyRandom(double earliest, Rng &rng)
{
    return occupy(static_cast<size_t>(rng.uniformInt(freeAt_.size())),
                  earliest);
}

double
MemoryModules::occupy(size_t module, double earliest)
{
    if (module >= freeAt_.size())
        panic("MemoryModules::occupy: module %zu out of range", module);
    double start = std::max(earliest, freeAt_[module]);
    freeAt_[module] = start + latency_;
    if (start >= windowStart_)
        busyIntegral_ += latency_;
    return start;
}

double
MemoryModules::utilization(double now) const
{
    double span = now - windowStart_;
    if (span <= 0.0)
        return 0.0;
    return busyIntegral_ /
        (span * static_cast<double>(freeAt_.size()));
}

void
MemoryModules::resetStats(double now)
{
    windowStart_ = now;
    busyIntegral_ = 0.0;
}

} // namespace snoop
