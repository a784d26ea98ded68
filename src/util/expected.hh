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
 *
 * Library solver paths (util/csv, the mva layer, core/analyzer,
 * core/sweep, core/solve_for) report failures through
 * these types and never call fatal() - enforced by the snoop_lint rule
 * `fatal-reachability`, which proves no public function of those files
 * (nor any try* function in core/) reaches a process-terminating call. Converting an error into process exit is the
 * business of CLI/tool boundaries (examples/, tools/), not of the
 * library.
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
    NonConvergence,   ///< iteration budget exhausted, ladder included
    NonFiniteIterate, ///< NaN/inf iterate survived the recovery ladder
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
 * @code
 *   Expected<MvaResult> r = analyzer.tryAnalyze(cfg, wl, n);
 *   if (!r)
 *       warn("%s", r.error().describe().c_str());
 *   else
 *       use(r.value());
 * @endcode
 */
template <typename T>
class [[nodiscard]] Expected
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

  private:
    std::variant<T, SolveError> state_;
};

/**
 * Expected<void>: success carries no value, so this degenerates to
 * "no error, or exactly one SolveError".
 */
template <>
class [[nodiscard]] Expected<void>
{
  public:
    /** Success. */
    Expected() = default;

    /** Implicit from an error. */
    Expected(SolveError error) { error_.push_back(std::move(error)); }

    bool ok() const { return error_.empty(); }
    explicit operator bool() const { return ok(); }

    const SolveError &error() const
    {
        SNOOP_ASSERT(!ok(), "Expected<void>::error() on success");
        return error_.front();
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

} // namespace snoop
