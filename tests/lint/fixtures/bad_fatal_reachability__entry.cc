// Negative fixture for the fatal-reachability entry set: in a solver
// file every external-linkage function is an entry point, not only
// the try* ones, so solveCell must fire on its direct fatal() call.

#include "util/logging.hh"

namespace snoop {

double
solveCell(double x)
{
    if (x < 0.0)
        fatal("negative input %g", x); // the planted sink
    return x * 2.0;
}

} // namespace snoop
