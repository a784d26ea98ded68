#pragma once

/**
 * @file
 * The customized mean-value-analysis model of Section 3: response
 * time equations (1)-(4), the bus waiting-time submodel (5)-(10), the
 * memory-interference submodel (11)-(12), and the cache-interference
 * submodel (13) + Appendix B, solved by fixed-point iteration from
 * all-zero waiting times (Section 3.2).
 */

#include <vector>

#include "mva/result.hh"
#include "protocol/config.hh"
#include "util/expected.hh"
#include "workload/derived.hh"
#include "workload/params.hh"

namespace snoop {

/**
 * What a solver does when the iteration budget runs out before the
 * tolerance is reached. An unconverged fixed point consumed as if
 * converged is exactly the failure mode the paper's accuracy claim
 * cannot survive, so the default is an error; returning the last
 * iterate is an explicit opt-in for a caller that reads converged.
 */
enum class NonConvergencePolicy {
    Fatal,  ///< an error from trySolve(), a throw from solve() (default)
    Accept, ///< return silently; caller promises to check converged
};

/** Numerical options for the MVA fixed point. */
struct MvaOptions
{
    int maxIterations = 500;   ///< iteration budget
    /**
     * Stop threshold: a solve stops once its last step moved every
     * component x of the iterate - wBus, wMem and R for MvaSolver,
     * every wait and response time for solveMulticlass and
     * solveHierarchical - by less than this relative to max(1, |x|)
     * (mvaConverged in mva/kernel.hh). At the default damping that
     * lands R within a few times the tolerance of the fixed point
     * (docs/MODEL.md, "Solution technique").
     */
    double tolerance = 1e-10;
    /**
     * Damping in (0,1]: each step moves the waiting times this far
     * toward the undamped update. 1 is the paper's plain successive
     * substitution (Section 3.2), whose slowly decaying oscillation
     * near saturation needs hundreds of iterations; the default 0.5
     * converges in tens across the design space (docs/MODEL.md,
     * "Solution technique").
     */
    double damping = 0.5;
    /** Behavior when the solve ends without converging. */
    NonConvergencePolicy onNonConvergence = NonConvergencePolicy::Fatal;
    /**
     * Wall-clock budget in seconds; 0 means unbudgeted. Exhaustion
     * stops the solve and is recorded in MvaResult::budgetExhausted,
     * then judged by the onNonConvergence policy like any other
     * unconverged solve.
     */
    double timeBudget = 0.0;
    /**
     * Iteration budget; 0 means maxIterations alone caps the solve.
     * A solve it stops is recorded as budgetExhausted.
     */
    long iterationBudget = 0;
};

/**
 * A warm-start seed for the MVA fixed point: the waiting-time state
 * of a previously solved neighboring configuration. Seeding replaces
 * Section 3.2's all-zero start, so a query near a known solution
 * converges in a handful of iterations instead of from cold. A
 * non-finite seed is rejected as InvalidArgument.
 */
struct MvaSeed
{
    double wBus = 0.0; ///< initial mean bus waiting time
    double wMem = 0.0; ///< initial mean memory waiting time
    /**
     * Initial response time R. The iteration state is genuinely
     * three-dimensional - eq. (6) computes the arrival queue length
     * from the *previous* iterate's R - so a seed that restores the
     * waiting times but not R lands far from the fixed point and
     * converges no faster than a cold start. 0 means "use the
     * cold-start value tau + T_supply".
     */
    double rTotal = 0.0;

    /** The seed corresponding to a finished solve's state. */
    static MvaSeed fromResult(const MvaResult &r)
    {
        return MvaSeed{r.wBus, r.wMem, r.responseTime};
    }
};

/**
 * Solves the customized MVA model for one or more system sizes.
 *
 * @code
 *   MvaSolver solver;
 *   auto inputs = DerivedInputs::compute(
 *       presets::appendixA(SharingLevel::FivePercent),
 *       ProtocolConfig::fromModString("1"));
 *   MvaResult r = solver.solve(inputs, 10);
 * @endcode
 */
class MvaSolver
{
  public:
    /** Throws SolveException (InvalidArgument) on malformed options. */
    explicit MvaSolver(MvaOptions opts = {});

    /**
     * Solve for @p n processors without terminating or throwing.
     * Errors: InvalidArgument (n == 0), NonFiniteIterate (the iterate
     * became NaN/inf), NonConvergence (only under
     * NonConvergencePolicy::Fatal, the default), NumericRange (a
     * finished measure violates its defining range). Under Accept an
     * unconverged solve is a *value* with converged == false.
     */
    [[nodiscard]] Expected<MvaResult> trySolve(const DerivedInputs &inputs,
                                 unsigned n) const
    {
        // The all-zero seed is Section 3.2's cold start.
        return trySolve(inputs, n, MvaSeed{});
    }

    /**
     * Solve for @p n processors starting the fixed point from
     * @p seed instead of the all-zero state (warm-start
     * continuation). Additional error: InvalidArgument on a
     * non-finite or negative seed component.
     */
    [[nodiscard]] Expected<MvaResult> trySolve(const DerivedInputs &inputs,
                                 unsigned n, const MvaSeed &seed) const;

    /** Solve for @p n processors; throws SolveException on error. */
    MvaResult solve(const DerivedInputs &inputs, unsigned n) const;

    /** Convenience: derive inputs and solve in one call. */
    MvaResult solve(const WorkloadParams &params,
                    const ProtocolConfig &protocol, unsigned n,
                    const BusTiming &timing = {}) const;

    /** Solve a sweep over system sizes. */
    std::vector<MvaResult> sweep(const DerivedInputs &inputs,
                                 const std::vector<unsigned> &ns) const;

    /** The options in use. */
    const MvaOptions &options() const { return opts_; }

  private:
    MvaOptions opts_;
};

} // namespace snoop
