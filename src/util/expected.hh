#pragma once

/**
 * @file
 * Structured solver errors and a lightweight Expected<T>.
 *
 * The paper's conclusion sells the MVA model as fast enough to
 * "explore a large design space quickly and interactively" - which
 * only holds if one stiff grid point near bus saturation cannot take
 * down the whole exploration. This header is the error half of that
 * contract:
 *
 *  - SolveError:     what went wrong (code), where (site), and the
 *                    chain of enclosing operations (context).
 *  - SolveException: the same error as a throwable, for legacy
 *                    call paths that cannot return Expected.
 *  - Expected<T>:    a value or a SolveError, with explicit unwrap.
 *  - SNOOP_TRY / SNOOP_TRY_OR / match(): the ways library code reaches
 *                    a value; each checks ok() first, so src/ never
 *                    calls value() (snoop_lint rule `expected-flow`).
 *
 * Library solver paths (util/csv, the mva layer, all of core/ and
 * serve/) report failures through these types and never call fatal()
 * - enforced by the ctest lint/fatal_link, which links every public
 * function of those files with --gc-sections and rejects any kept
 * function other than the contract handlers that calls fatal() or
 * exits the process.
 * Converting an error into process exit is the business of CLI/tool
 * boundaries (examples/, tools/), not of the library.
 */

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/contracts.hh"

namespace snoop {

/** Machine-readable classification of a solve failure. */
enum class SolveErrorCode {
    InvalidArgument,  ///< malformed options, spec, or query field
    UnknownProtocol,  ///< protocol name not in the catalog
    NonConvergence,   ///< iteration cap reached before the tolerance
    NonFiniteIterate, ///< the fixed-point iterate became NaN/inf
    NumericRange,     ///< finished result violates its defining range
    BudgetExhausted,  ///< per-solve wall-clock/iteration budget hit
    InjectedFault,    ///< deliberately injected by util/fault.hh
    IoError,          ///< file output could not be committed
    Internal,         ///< unexpected exception crossing the boundary
};

/** Stable kebab-case name of @p code (e.g. "non-convergence"). */
const char *to_string(SolveErrorCode code);

/**
 * One structured solver failure: the code, the reporting site, a
 * human-readable message, and the chain of enclosing operations added
 * as the error propagates outward (innermost first).
 */
struct SolveError
{
    SolveErrorCode code = SolveErrorCode::Internal;
    std::string site;    ///< producing site, e.g. "MvaSolver::solve"
    std::string message; ///< human-readable detail
    /** Enclosing-operation frames, innermost first (see withContext). */
    std::vector<std::string> context;

    /** Append an enclosing-operation frame; returns *this for chaining. */
    SolveError &withContext(std::string frame) &;

    /** Rvalue overload so `makeError(...).withContext(...)` moves. */
    SolveError &&withContext(std::string frame) &&;

    /**
     * One-line rendering: "[code] site: message (in frame1; in
     * frame2)".
     */
    std::string describe() const;
};

/** Build a SolveError with a printf-formatted message. */
SolveError makeError(SolveErrorCode code, std::string site,
                     const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/**
 * A SolveError as a throwable, for call paths that cannot return
 * Expected (legacy signatures, deep call stacks). what() returns
 * SolveError::describe().
 */
class SolveException : public std::runtime_error
{
  public:
    explicit SolveException(SolveError error);

    /** The structured error this exception carries. */
    const SolveError &error() const { return error_; }

  private:
    SolveError error_;
};

/**
 * A value of type T or a SolveError. Minimal by design: the library
 * needs "did it work, and if not, what exactly failed", not a monadic
 * combinator suite.
 *
 * Library code (src/) reaches the value only through a construct
 * that checks it first: SNOOP_TRY / SNOOP_TRY_OR below, or match().
 * value() is for tests and tool boundaries, where a held error is a
 * bug worth an assertion. The class is [[nodiscard]] and
 * [[gnu::warn_unused]]: the build rejects a result that is discarded
 * (-Werror=unused-result) or bound and never used
 * (-Werror=unused-variable).
 *
 * @code
 *   Expected<double>
 *   tryBusUtil(const Analyzer &analyzer, const ProtocolConfig &cfg,
 *              const WorkloadParams &wl, unsigned n)
 *   {
 *       SNOOP_TRY(const MvaResult &r, analyzer.tryAnalyze(cfg, wl, n));
 *       return r.busUtil;
 *   }
 * @endcode
 */
template <typename T>
class [[nodiscard, gnu::warn_unused]] Expected
{
  public:
    /** Implicit from a value (the success path reads naturally). */
    Expected(T value) : state_(std::move(value)) {}

    /** Implicit from an error. */
    Expected(SolveError error) : state_(std::move(error)) {}

    /** True when a value is held. */
    bool ok() const { return std::holds_alternative<T>(state_); }
    explicit operator bool() const { return ok(); }

    /** The held value; SNOOP_ASSERTs ok() (a library-bug guard). */
    T &value() &
    {
        SNOOP_ASSERT(ok(), "Expected::value() on an error");
        return std::get<T>(state_);
    }
    const T &value() const &
    {
        SNOOP_ASSERT(ok(), "Expected::value() on an error");
        return std::get<T>(state_);
    }
    T &&value() &&
    {
        SNOOP_ASSERT(ok(), "Expected::value() on an error");
        return std::get<T>(std::move(state_));
    }

    /** The held error; SNOOP_ASSERTs !ok(). */
    const SolveError &error() const &
    {
        SNOOP_ASSERT(!ok(), "Expected::error() on a value");
        return std::get<SolveError>(state_);
    }
    SolveError &&error() &&
    {
        SNOOP_ASSERT(!ok(), "Expected::error() on a value");
        return std::get<SolveError>(std::move(state_));
    }

    /** The value, or @p fallback when an error is held. */
    T valueOr(T fallback) const &
    {
        return ok() ? std::get<T>(state_) : std::move(fallback);
    }

    /** The value, or throw the error as a SolveException. */
    T &orThrow() &
    {
        if (!ok())
            throw SolveException(std::get<SolveError>(state_));
        return std::get<T>(state_);
    }
    T &&orThrow() &&
    {
        if (!ok())
            throw SolveException(std::get<SolveError>(std::move(state_)));
        return std::get<T>(std::move(state_));
    }

    /**
     * Call exactly one of @p onOk (with the value) or @p onErr (with
     * the error) and return its result; both must return the same
     * type. For sites that handle the error in place.
     */
    template <typename OnOk, typename OnErr>
    auto
    match(OnOk &&onOk, OnErr &&onErr) const &
    {
        if (ok())
            return std::forward<OnOk>(onOk)(std::get<T>(state_));
        return std::forward<OnErr>(onErr)(std::get<SolveError>(state_));
    }
    template <typename OnOk, typename OnErr>
    auto
    match(OnOk &&onOk, OnErr &&onErr) &&
    {
        if (ok())
            return std::forward<OnOk>(onOk)(std::get<T>(std::move(state_)));
        return std::forward<OnErr>(onErr)(
            std::get<SolveError>(std::move(state_)));
    }

  private:
    std::variant<T, SolveError> state_;
};

/**
 * Expected<void>: success carries no value, so this degenerates to
 * "no error, or exactly one SolveError".
 */
template <>
class [[nodiscard, gnu::warn_unused]] Expected<void>
{
  public:
    /** Success. */
    Expected() = default;

    /** Implicit from an error. */
    Expected(SolveError error) { error_.push_back(std::move(error)); }

    bool ok() const { return error_.empty(); }
    explicit operator bool() const { return ok(); }

    const SolveError &error() const &
    {
        SNOOP_ASSERT(!ok(), "Expected<void>::error() on success");
        return error_.front();
    }
    SolveError &&error() &&
    {
        SNOOP_ASSERT(!ok(), "Expected<void>::error() on success");
        return std::move(error_.front());
    }

    /** No-op on success; throws SolveException on error. */
    void orThrow() const
    {
        if (!ok())
            throw SolveException(error_.front());
    }

  private:
    // empty = success; one element = the error (vector avoids an
    // optional<SolveError> include for this one use).
    std::vector<SolveError> error_;
};

namespace detail {

/** SNOOP_TRY's error handler: hand the error on unchanged. */
inline SolveError
passError(SolveError &&error)
{
    return std::move(error);
}

} // namespace detail

} // namespace snoop

#define SNOOP_TRY_CAT_(a, b) a##b
#define SNOOP_TRY_NAME_(n) SNOOP_TRY_CAT_(snoop_try_, n)
#define SNOOP_TRY_IMPL_(tmp, lhs, expr, ...)                             \
    auto tmp = (expr);                                                   \
    if (!tmp.ok())                                                       \
        return (__VA_ARGS__)(std::move(tmp).error());                    \
    lhs = std::move(tmp).value()

/**
 * Evaluate @p expr (an Expected<T>) once. On error, return the error
 * from the enclosing function, which must return an Expected; on
 * success, bind the value to @p lhs: a declaration
 * (`SNOOP_TRY(auto x, f())`, `SNOOP_TRY(const T &x, f())`, which
 * refers into the hidden temporary) or an lvalue
 * (`SNOOP_TRY(out.n, f())`). Expands to several statements, so an
 * `if` or loop body holding it needs braces; @p lhs must not contain
 * a top-level comma.
 */
#define SNOOP_TRY(lhs, expr) SNOOP_TRY_OR(lhs, expr, ::snoop::detail::passError)

/**
 * SNOOP_TRY, but on error return `onErr(std::move(error))` instead:
 * rewrap or annotate the error, or map it to a plain fallback value
 * in a function that does not return Expected. The handler is the
 * remaining argument(s), so a lambda may contain commas.
 */
#define SNOOP_TRY_OR(lhs, expr, ...)                                     \
    SNOOP_TRY_IMPL_(SNOOP_TRY_NAME_(__COUNTER__), lhs, expr, __VA_ARGS__)
