#pragma once

/**
 * @file
 * Status and error reporting in the gem5 idiom.
 *
 * Four severities are provided:
 *  - inform(): normal operating message, no connotation of a problem.
 *  - warn():   something may be imprecise or only partially modeled.
 *  - fatal():  the run cannot continue due to a user error (bad
 *              configuration, invalid argument). Exits with code 1.
 *  - panic():  an internal invariant was violated (a library bug).
 *              Calls std::abort so a debugger or core dump can be used.
 */

#include <cstdarg>
#include <string>

namespace snoop {

/** Verbosity levels for run-time log filtering. */
enum class LogLevel {
    Quiet,   ///< only fatal/panic output
    Normal,  ///< warnings and informational messages (default)
    Debug,   ///< additionally, debug trace messages
};

/**
 * Set the global log verbosity. Safe to call from any thread (the
 * level is atomic; messages are emitted as one write per line).
 */
void setLogLevel(LogLevel level);

/** Current global log verbosity. */
LogLevel logLevel();

/** printf-style formatting into a std::string. */
std::string vstrprintf(const char *fmt, va_list args)
    __attribute__((format(printf, 1, 0)));

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a normal status message to stderr (LogLevel::Normal or higher). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr (LogLevel::Normal or higher). */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a debug trace message to stderr (LogLevel::Debug only). */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Report an unrecoverable user-level error and terminate with exit
 * status 1 (stdio flushed, atexit handlers skipped, so it is safe to
 * call from pool worker threads). Use for bad configurations and
 * invalid arguments.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report an internal invariant violation and abort().
 * Use only for conditions that indicate a bug in this library.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace snoop
