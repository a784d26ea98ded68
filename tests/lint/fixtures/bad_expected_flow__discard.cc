// Negative fixture for the expected-flow cases that need no path.
// readValue reads .value() off the call temporary: the expected-flow
// token rule fires. The other two are the compiler's: a bare-statement
// discard fails -Werror=unused-result (Expected is [[nodiscard]];
// ctest lint/nodiscard), and a binding never used fails
// -Werror=unused-variable (Expected is [[gnu::warn_unused]]; ctest
// lint/unused_expected). Both ctests compile this file.

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
    auto parsed = tryParse(text); // compile error: never used
}

} // namespace snoop
