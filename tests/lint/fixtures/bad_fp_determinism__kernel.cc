// Negative fixture for fp-determinism in a kernel file: the "kernel"
// in the basename opts this file in as a kernel, where accumulation
// order itself is part of the bit-identity contract. A fold over an
// unordered container fires on the container's name, and std::reduce
// fires because its accumulation order is unspecified.

#include <numeric>
#include <unordered_map> // must fire
#include <vector>

namespace snoop {

double
foldUnordered(const std::unordered_map<int, double> &weights) // must fire
{
    double acc = 0.0;
    for (const auto &kv : weights)
        acc += kv.second; // fold order follows hash order
    return acc;
}

double
reduceAll(const std::vector<double> &v)
{
    return std::reduce(v.begin(), v.end(), 0.0); // must fire
}

} // namespace snoop
