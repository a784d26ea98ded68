// Clean fixture: rule text inside raw-string (and ordinary-string)
// literals must never fire a code rule. The old line scanner
// declared raw strings out of scope; the token lexer handles them,
// including multi-line bodies and custom delimiters.

const char *kRuleDoc = R"doc(
    assert(x);              // would be no-raw-assert if it were code
    std::thread worker;     // would be no-raw-thread
    using namespace std;    // would be no-using-std
    std::rand(); time(0);   // would be determinism violations
)doc";

const char *kPlain = "assert(true); std::thread t;";

int
ruleDocLength()
{
    int n = 0;
    for (const char *p = kRuleDoc; *p; ++p)
        ++n;
    for (const char *p = kPlain; *p; ++p)
        ++n;
    return n;
}
