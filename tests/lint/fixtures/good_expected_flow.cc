// Clean fixture for expected-flow: every read of tryLoad's result
// goes through a construct that checks it first -- SNOOP_TRY,
// SNOOP_TRY_OR, match() or valueOr() -- so the rule stays silent.

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

Expected<double>
readTry(int key)
{
    SNOOP_TRY(double v, tryLoad(key)); // an error goes to the caller
    return 2.0 * v;
}

double
readTryOr(int key)
{
    SNOOP_TRY_OR(double v, tryLoad(key), [](SolveError &&) { return 0.0; });
    return v;
}

double
readMatch(int key)
{
    auto r = tryLoad(key);
    return r.match([](double v) { return v; },
                   [](const SolveError &) { return 0.0; });
}

double
readValueOr(int key)
{
    auto r = tryLoad(key);
    return r.valueOr(0.0); // safe accessor, no check needed
}

} // namespace snoop
