// Clean fixture for the expected-flow pass on call temporaries and
// negation checks: every Expected result below is checked, consumed
// through a safe accessor, or forwarded, so the pass must stay
// silent.

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
readChecked(const std::string &text)
{
    auto r = tryParse(text);
    if (!r)
        return 0.0;
    return r.value();
}

double
readOr(const std::string &text)
{
    return tryParse(text).valueOr(0.0);
}

Expected<double>
forward(const std::string &text)
{
    return tryParse(text);
}

} // namespace snoop
