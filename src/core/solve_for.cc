#include "core/solve_for.hh"

#include <cmath>

#include "util/expected.hh"
#include "util/logging.hh"

namespace snoop {

namespace {

SolveError
badQuery(std::string message)
{
    return makeError(SolveErrorCode::InvalidArgument,
                     "solveForParameter", "%s", message.c_str());
}

} // namespace

SolveForResult
solveForParameter(const SolveForQuery &q, const Analyzer &analyzer)
{
    if (!q.set)
        throw SolveException(badQuery("no parameter setter"));
    if (!(q.lo < q.hi)) {
        throw SolveException(badQuery(strprintf(
            "need lo < hi (got [%g, %g])", q.lo, q.hi)));
    }
    if (q.n == 0)
        throw SolveException(badQuery("need at least one processor"));
    if (q.tolerance <= 0.0)
        throw SolveException(badQuery("tolerance must be positive"));

    auto speedup_at = [&](double v) {
        WorkloadParams wl = q.base;
        q.set(wl, v);
        return analyzer.analyze(q.protocol, wl, q.n).speedup;
    };

    SolveForResult res;
    res.speedupAtLo = speedup_at(q.lo);
    res.speedupAtHi = speedup_at(q.hi);

    double smin = std::min(res.speedupAtLo, res.speedupAtHi);
    double smax = std::max(res.speedupAtLo, res.speedupAtHi);
    if (q.targetSpeedup < smin - 1e-12 ||
        q.targetSpeedup > smax + 1e-12) {
        return res; // unattainable on this interval
    }

    bool increasing = res.speedupAtHi >= res.speedupAtLo;
    double lo = q.lo, hi = q.hi;
    while (hi - lo > q.tolerance) {
        double mid = 0.5 * (lo + hi);
        double s = speedup_at(mid);
        bool below = s < q.targetSpeedup;
        if (below == increasing)
            lo = mid;
        else
            hi = mid;
    }
    res.value = 0.5 * (lo + hi);
    return res;
}

} // namespace snoop
