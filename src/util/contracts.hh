#pragma once

/**
 * @file
 * Contract macros and numeric-validity guards.
 *
 * The paper's central claim is accuracy (MVA within a few percent of
 * the detailed GTPN model), so silent numeric corruption - NaN
 * propagation, negative probabilities, utilizations above 1, or
 * unconverged fixed points consumed as if converged - is the worst
 * failure mode this library can have. Everything here makes those
 * conditions loud:
 *
 *  - SNOOP_ASSERT(cond, ...):   internal invariant; routes to panic()
 *                               (abort, core dump) on violation.
 *  - SNOOP_REQUIRE(cond, ...):  caller/input precondition; routes to
 *                               fatal() (exit 1) on violation.
 *  - SNOOP_REQUIRE_OK(expr):    the same for a structured check()
 *                               (an Expected<void>): exit 1 with the
 *                               error's describe() on failure.
 *  - SNOOP_NUMERIC_CHECK(cond, ...): numeric-validity invariant;
 *                               routes to panic() with a "numeric"
 *                               prefix so corrupted solver state is
 *                               distinguishable from logic bugs.
 *  - NumericGuard:              chainable validator for solver
 *                               outputs (finiteness, probability and
 *                               utilization ranges, distributions and
 *                               stochastic-matrix rows, convergence).
 *
 * SNOOP_ASSERT, SNOOP_REQUIRE and SNOOP_NUMERIC_CHECK accept an optional
 * printf-style message:
 *
 * @code
 *   SNOOP_ASSERT(idx < size_);
 *   SNOOP_REQUIRE(n > 0, "need at least one processor, got %u", n);
 *   SNOOP_NUMERIC_CHECK(std::isfinite(r), "R diverged at iter %d", it);
 *
 *   NumericGuard("MvaSolver", "N=12")
 *       .finite("responseTime", res.responseTime)
 *       .utilization("busUtil", res.busUtil)
 *       .probability("pBusyBus", res.pBusyBus);
 * @endcode
 */

#include <cstddef>
#include <string>
#include <vector>

namespace snoop {

namespace detail {

/** SNOOP_ASSERT failure: report and abort (panic idiom). */
[[noreturn]] void assertFail(const char *file, int line, const char *expr);
[[noreturn]] void assertFail(const char *file, int line, const char *expr,
                             const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

/** SNOOP_REQUIRE failure: report and exit(1) (fatal idiom). */
[[noreturn]] void requireFail(const char *file, int line, const char *expr);
[[noreturn]] void requireFail(const char *file, int line, const char *expr,
                              const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

/** SNOOP_NUMERIC_CHECK failure: report numeric corruption and abort. */
[[noreturn]] void numericFail(const char *file, int line, const char *expr);
[[noreturn]] void numericFail(const char *file, int line, const char *expr,
                              const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

} // namespace detail

/**
 * Internal invariant check. Always enabled (the solvers are cheap
 * relative to the cost of publishing a wrong speedup curve).
 */
#define SNOOP_ASSERT(cond, ...)                                           \
    do {                                                                  \
        if (!(cond)) [[unlikely]] {                                       \
            ::snoop::detail::assertFail(                                  \
                __FILE__, __LINE__, #cond __VA_OPT__(, ) __VA_ARGS__);    \
        }                                                                 \
    } while (0)

/** Caller-facing precondition check; violation is a user error. */
#define SNOOP_REQUIRE(cond, ...)                                          \
    do {                                                                  \
        if (!(cond)) [[unlikely]] {                                       \
            ::snoop::detail::requireFail(                                 \
                __FILE__, __LINE__, #cond __VA_OPT__(, ) __VA_ARGS__);    \
        }                                                                 \
    } while (0)

/**
 * Precondition stated as a structured check: evaluate @p expr (an
 * Expected<void>, e.g. `params.check()`) once and, on error, exit 1
 * through requireFail with the error's describe() text. Library
 * entries that can recover call check() themselves instead.
 */
#define SNOOP_REQUIRE_OK(expr)                                            \
    do {                                                                  \
        if (auto snoop_require_ok_ = (expr); !snoop_require_ok_)          \
            [[unlikely]] {                                                \
            ::snoop::detail::requireFail(                                 \
                __FILE__, __LINE__, #expr, "%s",                          \
                snoop_require_ok_.error().describe().c_str());            \
        }                                                                 \
    } while (0)

/** Numeric-validity check; violation means corrupted solver state. */
#define SNOOP_NUMERIC_CHECK(cond, ...)                                    \
    do {                                                                  \
        if (!(cond)) [[unlikely]] {                                       \
            ::snoop::detail::numericFail(                                 \
                __FILE__, __LINE__, #cond __VA_OPT__(, ) __VA_ARGS__);    \
        }                                                                 \
    } while (0)

/**
 * Chainable validator for solver outputs.
 *
 * Each check either passes silently or panics with the guard's
 * context, the offending quantity's name, and its value - so a NaN
 * produced deep inside a fixed point is reported at the solver
 * boundary where it still has a name, not ten call frames later.
 *
 * Tolerances default to kSlack, which absorbs honest floating-point
 * rounding (a utilization of 1 + 1e-12) without admitting real
 * corruption (a probability of 1.3 or -0.2).
 */
class NumericGuard
{
  public:
    /** Default tolerance absorbed by range checks. */
    static constexpr double kSlack = 1e-9;

    /**
     * @param context  solver or subsystem name, e.g. "MvaSolver"
     * @param detail   optional instance detail, e.g. "N=12 protocol=WO"
     */
    explicit NumericGuard(const char *context, std::string detail = {});

    /** Value must be finite (neither NaN nor infinite). */
    const NumericGuard &finite(const char *what, double v) const;

    /** Value must be finite and >= -kSlack. */
    const NumericGuard &nonNegative(const char *what, double v) const;

    /** Value must be finite and strictly positive. */
    const NumericGuard &positive(const char *what, double v) const;

    /** Value must be a probability in [0 - slack, 1 + slack]. */
    const NumericGuard &probability(const char *what, double v,
                                    double slack = kSlack) const;

    /** Utilizations are probabilities of a server being busy. */
    const NumericGuard &utilization(const char *what, double v,
                                    double slack = kSlack) const;

    /** Every component must be finite. */
    const NumericGuard &finiteVector(const char *what,
                                     const std::vector<double> &v) const;

    /**
     * A probability distribution: every entry in [0 - slack, 1 + slack]
     * and the entries summing to 1 within @p sum_tol.
     */
    const NumericGuard &distribution(const char *what,
                                     const std::vector<double> &p,
                                     double sum_tol = 1e-6) const;

    /**
     * A row-stochastic matrix stored densely (row-major, n x n):
     * every entry a probability and every row summing to 1.
     */
    const NumericGuard &stochasticRows(const char *what,
                                       const std::vector<double> &m,
                                       size_t n,
                                       double sum_tol = 1e-6) const;

    /**
     * Enforce that a solver honored its convergence contract: callers
     * use this when consuming a result whose converged flag must hold.
     */
    const NumericGuard &converged(const char *what, bool flag) const;

  private:
    [[noreturn]] void fail(const char *what, double v,
                           const char *why) const;

    const char *context_;
    std::string detail_;
};

} // namespace snoop
