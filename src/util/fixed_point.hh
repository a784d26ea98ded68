#pragma once

/**
 * @file
 * The shared vocabulary of the damped fixed-point iteration behind
 * the paper's Section 3.2 ("the equations must be solved iteratively
 * ... starting with all waiting times set to zero"): the
 * non-convergence policy, the recovery-ladder schedule that rescues
 * the oscillating or diverging solves plain successive substitution
 * cannot handle near bus saturation, and the per-attempt record.
 *
 * The ladder drivers themselves live in mva/lane.hh: MvaLane for the
 * customized MVA model, runRecoveryLadder() for its multiclass and
 * hierarchical extensions.
 */

#include <vector>

namespace snoop {

/**
 * What a solver does when the iteration budget runs out before the
 * tolerance is reached. The silent legacy behavior (return with
 * converged == false and say nothing) is deliberately not offered:
 * an unconverged fixed point consumed as if converged is exactly the
 * failure mode the paper's accuracy claim cannot survive.
 */
enum class NonConvergencePolicy {
    Warn,   ///< warn() and return the last iterate (default)
    Fatal,  ///< throw SolveException: treat as an unusable configuration
    Accept, ///< return silently; caller promises to check converged
};

/**
 * The shared recovery-ladder rungs, heaviest first. Every ladder
 * driver (MvaLane, the batch engine's fused tick, runRecoveryLadder)
 * escalates through the same sequence, so a solve rescued by rung k
 * behaves identically no matter which engine ran it. Use
 * recoveryLadder() to build the full attempt schedule for a
 * configured damping factor.
 */
inline constexpr double kRecoveryLadderRungs[] = {0.5, 0.25, 0.1, 0.05};

/**
 * The full attempt schedule for @p damping: the configured factor
 * first, then every shared rung strictly below it. A rung at or above
 * the configured damping would retry an equal-or-lighter blend, so it
 * is *skipped* rather than terminating the ladder (terminating was
 * the dead-ladder bug that left recovery off for any configured
 * damping <= 0.5).
 */
inline std::vector<double>
recoveryLadder(double damping)
{
    std::vector<double> ladder{damping};
    for (double d : kRecoveryLadderRungs) {
        if (d < ladder.back())
            ladder.push_back(d);
    }
    return ladder;
}

/**
 * One rung of a recovery ladder: how a single MVA solve attempt at a
 * given damping factor ended (MvaResult::attempts, one per rung).
 */
struct SolveAttempt
{
    double damping = 1.0;   ///< damping factor used for this attempt
    int iterations = 0;     ///< iterations performed in this attempt
    double residual = 0.0;  ///< final residual of this attempt
    bool converged = false; ///< attempt reached the tolerance
    bool nonFinite = false; ///< attempt aborted on a NaN/inf iterate
};

} // namespace snoop
