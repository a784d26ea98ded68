// Compile fixture for the lint/format_attr ctest: printf-style
// forwarders without __attribute__((format(printf, ...))). The
// build's -Werror=suggest-attribute=format must reject both on their
// vsnprintf lines, or their callers' format strings go unchecked.

#include <cstdarg>
#include <cstdio>
#include <string>

std::string
formatArgs(const char *fmt, va_list args)
{
    char buf[256];
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    return buf;
}

std::string
formatVarargs(const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}
