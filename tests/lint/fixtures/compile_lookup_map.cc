// Compile fixture for the lint/lookup_map ctest: the iterations the
// old fp-determinism CFG pass reported (hash order reaching an output
// call, and a kernel fold in hash order), written against LookupMap.
// The compiler must reject both range-fors: a LookupMap has no
// begin()/end(), so its order cannot reach a result.

#include <cstdio>

#include "util/lookup_map.hh"

namespace {

snoop::LookupMap<int, double> g_weights;

} // namespace

void
emitWeights()
{
    for (const auto &kv : g_weights) // order would reach printf
        std::printf("%f\n", kv.second);
}

double
foldWeights()
{
    double acc = 0.0;
    for (const auto &kv : g_weights) // fold would follow hash order
        acc += kv.second;
    return acc;
}
