#include "util/contracts.hh"

#include <cmath>
#include <cstdarg>

#include "util/logging.hh"

namespace snoop {

namespace detail {

namespace {

/** Shared failure formatting: "<file>:<line>: (<expr>) [: message]". */
__attribute__((format(printf, 4, 0))) std::string
describe(const char *file, int line, const char *expr, const char *fmt,
         va_list args)
{
    std::string msg = strprintf("%s:%d: check failed: (%s)", file, line,
                                expr);
    if (fmt != nullptr) {
        msg += ": ";
        msg += vstrprintf(fmt, args);
    }
    return msg;
}

} // namespace

void
assertFail(const char *file, int line, const char *expr)
{
    panic("assertion %s:%d: check failed: (%s)", file, line, expr);
}

void
assertFail(const char *file, int line, const char *expr, const char *fmt,
           ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = describe(file, line, expr, fmt, args);
    va_end(args);
    panic("assertion %s", msg.c_str());
}

void
requireFail(const char *file, int line, const char *expr)
{
    fatal("requirement %s:%d: check failed: (%s)", file, line, expr);
}

void
requireFail(const char *file, int line, const char *expr, const char *fmt,
            ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = describe(file, line, expr, fmt, args);
    va_end(args);
    fatal("requirement %s", msg.c_str());
}

void
numericFail(const char *file, int line, const char *expr)
{
    panic("numeric %s:%d: check failed: (%s)", file, line, expr);
}

void
numericFail(const char *file, int line, const char *expr, const char *fmt,
            ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = describe(file, line, expr, fmt, args);
    va_end(args);
    panic("numeric %s", msg.c_str());
}

} // namespace detail

NumericGuard::NumericGuard(const char *context, std::string detail)
    : context_(context), detail_(std::move(detail))
{
}

void
NumericGuard::fail(const char *what, double v, const char *why) const
{
    if (detail_.empty())
        panic("numeric %s: %s = %g %s", context_, what, v, why);
    panic("numeric %s (%s): %s = %g %s", context_, detail_.c_str(), what,
          v, why);
}

const NumericGuard &
NumericGuard::finite(const char *what, double v) const
{
    if (!std::isfinite(v))
        fail(what, v, "is not finite");
    return *this;
}

const NumericGuard &
NumericGuard::nonNegative(const char *what, double v) const
{
    finite(what, v);
    if (v < -kSlack)
        fail(what, v, "is negative");
    return *this;
}

const NumericGuard &
NumericGuard::positive(const char *what, double v) const
{
    finite(what, v);
    if (v <= 0.0)
        fail(what, v, "is not positive");
    return *this;
}

const NumericGuard &
NumericGuard::probability(const char *what, double v, double slack) const
{
    finite(what, v);
    if (v < -slack || v > 1.0 + slack)
        fail(what, v, "is not a probability in [0, 1]");
    return *this;
}

const NumericGuard &
NumericGuard::utilization(const char *what, double v, double slack) const
{
    finite(what, v);
    if (v < -slack || v > 1.0 + slack)
        fail(what, v, "is not a utilization in [0, 1]");
    return *this;
}

const NumericGuard &
NumericGuard::finiteVector(const char *what,
                           const std::vector<double> &v) const
{
    for (size_t i = 0; i < v.size(); ++i) {
        if (!std::isfinite(v[i])) {
            std::string name = strprintf("%s[%zu]", what, i);
            fail(name.c_str(), v[i], "is not finite");
        }
    }
    return *this;
}

const NumericGuard &
NumericGuard::distribution(const char *what, const std::vector<double> &p,
                           double sum_tol) const
{
    double total = 0.0;
    for (size_t i = 0; i < p.size(); ++i) {
        std::string name = strprintf("%s[%zu]", what, i);
        probability(name.c_str(), p[i]);
        total += p[i];
    }
    if (!std::isfinite(total) || std::fabs(total - 1.0) > sum_tol) {
        std::string name = strprintf("sum(%s)", what);
        fail(name.c_str(), total, "does not sum to 1");
    }
    return *this;
}

const NumericGuard &
NumericGuard::stochasticRows(const char *what,
                             const std::vector<double> &m, size_t n,
                             double sum_tol) const
{
    if (m.size() != n * n) {
        std::string name = strprintf("dim(%s)", what);
        fail(name.c_str(), static_cast<double>(m.size()),
             "is not n*n entries");
    }
    for (size_t i = 0; i < n; ++i) {
        double row = 0.0;
        for (size_t j = 0; j < n; ++j) {
            std::string name = strprintf("%s[%zu][%zu]", what, i, j);
            probability(name.c_str(), m[i * n + j]);
            row += m[i * n + j];
        }
        if (std::fabs(row - 1.0) > sum_tol) {
            std::string name = strprintf("rowsum(%s[%zu])", what, i);
            fail(name.c_str(), row, "does not sum to 1");
        }
    }
    return *this;
}

const NumericGuard &
NumericGuard::converged(const char *what, bool flag) const
{
    if (!flag)
        fail(what, 0.0, "solver reported non-convergence");
    return *this;
}

} // namespace snoop
