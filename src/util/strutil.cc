#include "util/strutil.hh"

#include <algorithm>
#include <cctype>
#include <cfloat>
#include <charconv>
#include <cstdlib>
#include <cstring>

#include "util/contracts.hh"
#include "util/logging.hh"

namespace snoop {

namespace {

/** Widest precision appendDouble formats in place: DBL_MAX has
 *  DBL_MAX_10_EXP + 1 integer digits, plus sign and point. */
constexpr int kInlineDigits = 64;

} // namespace

void
appendDouble(std::string &out, double value, int digits)
{
    if (digits < 0 || digits > kInlineDigits) {
        // printf's reading of a negative precision (6), and the rare
        // caller wider than the inline buffer.
        out += strprintf("%.*f", digits, value);
        return;
    }
    char buf[DBL_MAX_10_EXP + 3 + kInlineDigits];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value,
                                   std::chars_format::fixed, digits);
    SNOOP_ASSERT(ec == std::errc(), "appendDouble: buffer too small");
    out.append(buf, end);
}

std::string
formatDouble(double value, int digits)
{
    std::string s;
    appendDouble(s, value, digits);
    return s;
}

std::string
formatCompact(double value, int max_digits, int min_digits)
{
    std::string s = formatDouble(value, max_digits);
    auto dot = s.find('.');
    if (dot == std::string::npos)
        return s;
    size_t last = s.size();
    size_t min_len = (min_digits == 0)
        ? dot : dot + 1 + static_cast<size_t>(min_digits);
    while (last > min_len && last > dot + 1 && s[last - 1] == '0')
        --last;
    if (last == dot + 1)
        --last; // drop a bare trailing '.'
    return s.substr(0, last);
}

std::string
formatPercent(double fraction, int digits)
{
    return strprintf("%.*f%%", digits, fraction * 100.0);
}

size_t
displayWidth(const std::string &s)
{
    // Count UTF-8 code points (continuation bytes 0b10xxxxxx don't
    // start one). The few non-ASCII glyphs in this tree (the error
    // cells' em dash) are all single-column, so code points are an
    // adequate stand-in for terminal columns.
    size_t width = 0;
    for (unsigned char c : s) {
        if ((c & 0xc0) != 0x80)
            ++width;
    }
    return width;
}

std::string
padLeft(const std::string &s, size_t width)
{
    size_t w = displayWidth(s);
    if (w >= width)
        return s;
    return std::string(width - w, ' ') + s;
}

std::string
padRight(const std::string &s, size_t width)
{
    size_t w = displayWidth(s);
    if (w >= width)
        return s;
    return s + std::string(width - w, ' ');
}

std::string
padCenter(const std::string &s, size_t width)
{
    size_t w = displayWidth(s);
    if (w >= width)
        return s;
    size_t total = width - w;
    size_t left = total / 2;
    return std::string(left, ' ') + s + std::string(total - left, ' ');
}

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == delim) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
        std::equal(prefix.begin(), prefix.end(), s.begin());
}

std::string
trim(const std::string &s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

bool
parseInt(const std::string &s, long &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(s.c_str(), &end, 10);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    out = v;
    return true;
}

} // namespace snoop
