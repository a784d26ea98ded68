// Negative fixture for expected-flow: tryLoad's result is read via
// .value() on a path that never checked it, and on the branch where
// ok() is false. The rule bans the `.value(` token in library code, so
// both reads fire with no path analysis; the checked reads go through
// match() and valueOr(), which cannot reach an unchecked value.

#include "util/expected.hh"

namespace snoop {

Expected<double>
tryLoad(int key)
{
    if (key < 0)
        return makeError(SolveErrorCode::InvalidArgument, "tryLoad",
                         "negative key");
    return 1.0;
}

double
readMixed(int key, bool fast)
{
    auto r = tryLoad(key);
    if (fast)
        return r.value(); // must fire: unchecked on this path
    return r.match([](double v) { return v; },
                   [](const SolveError &) { return 0.0; }); // silent
}

double
readErrBranch(int key)
{
    auto r = tryLoad(key);
    if (r.ok())
        return r.valueOr(0.0); // checked accessor: silent
    return r.value(); // must fire: reads the not-ok branch
}

} // namespace snoop
