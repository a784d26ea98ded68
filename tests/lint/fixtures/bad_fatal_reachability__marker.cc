// Negative fixture for the fatal-reachability pass on a direct sink
// and its waiver: the try* entry trySolveCell calls fatal() itself
// and must fire; tryBoundedCell reaches only a fatal() carrying the
// fatal-ok marker (a deliberate boundary) and must stay silent.

#include "util/logging.hh"

namespace snoop {

double
trySolveCell(double x)
{
    if (x < 0.0)
        fatal("negative input %g", x); // the planted sink
    return x * 2.0;
}

double
tryBoundedCell(double x)
{
    // snoop-lint: fatal-ok
    if (x > 1e9)
        fatal("input %g out of supported range", x);
    return x;
}

} // namespace snoop
