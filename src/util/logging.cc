#include "util/logging.hh"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace snoop {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Normal};

__attribute__((format(printf, 2, 0))) void
emit(const char *tag, const char *fmt, va_list args)
{
    // Format the complete line first and write it with one stdio call:
    // stdio locks the stream per call, so concurrent workers cannot
    // interleave tag, body, and newline of different messages.
    va_list copy;
    va_copy(copy, args);
    std::string line = tag + vstrprintf(fmt, copy) + "\n";
    va_end(copy);
    std::fwrite(line.data(), 1, line.size(), stderr);
}
} // namespace

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

std::string
vstrprintf(const char *fmt, va_list args)
{
    va_list copy;
    va_copy(copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    if (n < 0)
        return {};
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(n));
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    return s;
}

void
inform(const char *fmt, ...)
{
    if (logLevel() == LogLevel::Quiet)
        return;
    va_list args;
    va_start(args, fmt);
    emit("info: ", fmt, args);
    va_end(args);
}

void
warn(const char *fmt, ...)
{
    if (logLevel() == LogLevel::Quiet)
        return;
    va_list args;
    va_start(args, fmt);
    emit("warn: ", fmt, args);
    va_end(args);
}

void
debugLog(const char *fmt, ...)
{
    if (logLevel() != LogLevel::Debug)
        return;
    va_list args;
    va_start(args, fmt);
    emit("debug: ", fmt, args);
    va_end(args);
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit("fatal: ", fmt, args);
    va_end(args);
    // _exit, not exit: fatal may fire on a pool worker (e.g. inside a
    // parallelFor body), where running static destructors would join
    // the calling thread itself, and two workers hitting fatal
    // concurrently would race in exit(). Flush stdio, then leave.
    std::fflush(nullptr);
    std::_Exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit("panic: ", fmt, args);
    va_end(args);
    std::abort();
}

} // namespace snoop
