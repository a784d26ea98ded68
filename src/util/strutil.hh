#pragma once

/**
 * @file
 * Small string helpers used across the library (no <format> on the
 * reference toolchain, so numeric formatting lives here).
 */

#include <string>
#include <vector>

namespace snoop {

/**
 * Format a double with @p digits digits after the decimal point.
 *
 * The bytes are exactly printf's "%.*f" in the C locale - "nan",
 * "-nan", "inf", "-0.000" and exact-decimal ties included - but go
 * through std::to_chars(fixed, digits), with no format-string parse
 * or locale lookup (tests/util/test_strutil.cc pins the identity).
 */
std::string formatDouble(double value, int digits);

/** Append formatDouble(value, digits) to @p out without a temporary. */
void appendDouble(std::string &out, double value, int digits);

/**
 * Format a double like the paper's tables: trailing zeros after the
 * decimal point are trimmed ("5.30" stays "5.30" only at @p minDigits).
 */
std::string formatCompact(double value, int max_digits, int min_digits = 0);

/** Format a value as a percentage string, e.g. 0.0312 -> "3.12%". */
std::string formatPercent(double fraction, int digits = 2);

/**
 * Terminal display width of @p s: UTF-8 code points, not bytes (the
 * em dash a failed sweep cell renders as is 3 bytes, 1 column).
 */
size_t displayWidth(const std::string &s);

/** Left-pad @p s with spaces to width @p width. */
std::string padLeft(const std::string &s, size_t width);

/** Right-pad @p s with spaces to width @p width. */
std::string padRight(const std::string &s, size_t width);

/** Center @p s in a field of width @p width. */
std::string padCenter(const std::string &s, size_t width);

/** Split @p s on @p delim; empty fields are preserved. */
std::vector<std::string> split(const std::string &s, char delim);

/** Join @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** ASCII lower-case copy. */
std::string toLower(std::string s);

/** True if @p s begins with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Strip leading and trailing whitespace. */
std::string trim(const std::string &s);

/**
 * Parse a double, returning false on any trailing garbage.
 * Accepts the usual strtod syntax.
 */
bool parseDouble(const std::string &s, double &out);

/** Parse a non-negative integer; returns false on overflow/garbage. */
bool parseInt(const std::string &s, long &out);

} // namespace snoop
