// Clean fixture for expected-flow on call temporaries: each result
// below is read through match() or valueOr() straight off the call,
// bound by SNOOP_TRY, or forwarded, so the rule stays silent.

#include "util/expected.hh"

namespace snoop {

Expected<double>
tryParse(const std::string &text)
{
    if (text.empty())
        return makeError(SolveErrorCode::InvalidArgument, "tryParse",
                         "empty input");
    return 1.0;
}

double
readMatched(const std::string &text)
{
    return tryParse(text).match([](double v) { return v; },
                                [](SolveError &&) { return 0.0; });
}

double
readOr(const std::string &text)
{
    return tryParse(text).valueOr(0.0);
}

Expected<double>
readBoth(const std::string &a, const std::string &b)
{
    SNOOP_TRY(double x, tryParse(a));
    SNOOP_TRY(double y, tryParse(b));
    return x + y;
}

Expected<double>
forward(const std::string &text)
{
    return tryParse(text);
}

} // namespace snoop
