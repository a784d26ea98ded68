// Negative fixture for the expected-flow cases that need no path:
// tryParse returns Expected<double>; one caller reads .value() off
// the call temporary and another binds the result and never looks
// at it. The third caller discards the result as a bare statement:
// that case belongs to the compiler (Expected is [[nodiscard]] and
// the build passes -Werror=unused-result), and the lint/nodiscard
// test compiles this file to prove the build rejects it.

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

void
consume(const std::string &text)
{
    tryParse(text); // compile error: Expected silently discarded
}

double
readValue(const std::string &text)
{
    return tryParse(text).value(); // must fire: .value() unchecked
}

void
bindOnly(const std::string &text)
{
    auto parsed = tryParse(text); // must fire: never consulted
}

} // namespace snoop
