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
#include "util/fixed_point.hh"
#include "workload/derived.hh"
#include "workload/params.hh"

namespace snoop {

/** Numerical options for the MVA fixed point. */
struct MvaOptions
{
    int maxIterations = 500;   ///< iteration budget
    /**
     * Stop threshold on the distance left to the fixed point,
     * relative to max(1, |x|) for each of wBus, wMem and R: an attempt
     * stops once its last relative step s, extrapolated over the
     * geometric tail of a contraction at the observed rate
     * rho = s / s_prev, is below it (s * rho / (1 - rho) < tolerance;
     * mvaConverged in mva/kernel.hh). The extrapolation is an
     * estimate: at the default damping R lands within about 10x the
     * tolerance of the fixed point (docs/MODEL.md).
     * solveMulticlass and solveHierarchical keep their own step tests
     * against it.
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
    /** Record the per-iteration residual trace in the result. */
    bool recordTrace = false;
    /**
     * Behavior when the damping fallback ladder is exhausted without
     * convergence (see NonConvergencePolicy in util/fixed_point.hh).
     */
    NonConvergencePolicy onNonConvergence = NonConvergencePolicy::Fatal;
    /**
     * Wall-clock budget in seconds across all ladder attempts; 0
     * means unbudgeted. Exhaustion stops the ladder and is recorded
     * in MvaResult::budgetExhausted, then judged by the
     * onNonConvergence policy like any other unconverged solve.
     */
    double timeBudget = 0.0;
    /**
     * Total iteration budget across all ladder attempts; 0 means
     * each attempt gets maxIterations on its own.
     */
    long iterationBudget = 0;
};

/**
 * A warm-start seed for the MVA fixed point: the waiting-time state
 * of a previously solved neighboring configuration. Seeding replaces
 * Section 3.2's all-zero start, so a query near a known solution
 * converges in a handful of iterations instead of from cold. The
 * recovery ladder restarts from the seed, and a non-finite seed is
 * rejected as InvalidArgument.
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
     * Errors: InvalidArgument (n == 0), NonFiniteIterate (a NaN/inf
     * iterate survived the damping ladder), NonConvergence (only under
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
     * continuation). Every recovery-ladder attempt restarts from the
     * seed. Additional error: InvalidArgument on a non-finite or
     * negative seed component.
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
