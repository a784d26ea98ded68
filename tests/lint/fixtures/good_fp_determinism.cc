// Clean fixture for the fp-determinism pass: the deterministic
// kernel call, the waived hoisted log2 idiom, ordered-map iteration
// into output, and a lookup-only LookupMap index -- all of which must
// stay silent.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "util/lookup_map.hh"

namespace snoop {

double mvaExp2(double x);

double
interference(double log2PPrime, double q)
{
    return 1.0 - mvaExp2(q * log2PPrime); // deterministic kernel
}

double
hoist(double pPrime)
{
    // snoop-lint: fp-ok
    return std::log2(pPrime); // waived: the documented hoist idiom
}

void
emitOrdered(const std::map<std::string, double> &counts)
{
    for (const auto &kv : counts) // std::map: deterministic order
        std::printf("%s %f\n", kv.first.c_str(), kv.second);
}

double
lookUp(LookupMap<int, double> &index, int key)
{
    const double *v = index.find(key); // no order to leak
    return v ? *v : 0.0;
}

} // namespace snoop
