// Negative fixture for fp-determinism: a libm transcendental call in
// bit-identity-critical scope, and unordered containers whose hash
// order reaches a serialization call or a sum. The rule bans the
// `unordered_` identifier in roster modules, so the header and both
// parameters fire; an index that is only looked up is a LookupMap
// (util/lookup_map.hh), whose iteration does not compile (ctest
// lint/lookup_map). The basename opts this file into the rule's scope
// (fixture runs have no determinism.txt).

#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_map> // must fire

namespace snoop {

double
interference(double pPrime, double q)
{
    return 1.0 - std::pow(pPrime, q); // must fire: libm pow
}

void
emitCounts(
    const std::unordered_map<std::string, double> &counts) // must fire
{
    for (const auto &kv : counts) // hash order reaches printf
        std::printf("%s %f\n", kv.first.c_str(), kv.second);
}

double
sumUnordered(
    const std::unordered_map<std::string, double> &counts) // must fire
{
    double total = 0.0;
    for (const auto &kv : counts)
        total += kv.second; // the sum's rounding follows hash order
    return total;
}

} // namespace snoop
