#pragma once

/**
 * @file
 * One MVA lane: everything a solve does around the shared step of
 * mva/kernel.hh - admission, the recovery ladder, the iteration and
 * wall-clock budgets, disposition, and trace replay - plus the
 * round-robin scalar driver over a set of lanes.
 *
 * This is the only scalar driver of the customized MVA model.
 * MvaSolver::trySolve runs it on one stack-resident lane;
 * BatchMvaSolver runs it over a block when a solver fault is armed or
 * a lane has a time budget, and otherwise advances the same lane
 * records through its fused SoA tick, handing each finished attempt
 * back to endAttempt().
 *
 * The model's extensions (solveMulticlass, solveHierarchical) iterate
 * more waits than a lane holds; they run their attempts through
 * runRecoveryLadder(), the one other ladder driver.
 */

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mva/kernel.hh"
#include "mva/result.hh"
#include "mva/solver.hh"
#include "observe/metrics.hh"
#include "observe/trace.hh"
#include "util/expected.hh"
#include "util/logging.hh"

namespace snoop {

/**
 * The solver fault sites, armed once per driver call so injection is
 * a pure function of the configuration, never of scheduling.
 */
struct MvaFaults
{
    bool nan = false;         ///< mva.nan: NaN w_bus at iteration 2
    bool nonconverge = false; ///< mva.nonconverge: every attempt fails
    bool first = false;       ///< mva.first_attempt: attempt 0 fails

    /** The currently armed sites. */
    static MvaFaults armed();
    bool any() const { return nan || nonconverge || first; }
};

/**
 * One solve request and its complete fixed-point state. The request
 * is referenced, never copied: a scalar solve keeps its inputs in the
 * caller's frame, a batch lane in its MvaJob.
 */
struct MvaLane
{
    using clock = std::chrono::steady_clock;

    MvaLane(const DerivedInputs &d, unsigned procs, const MvaSeed &s,
            const MvaOptions &o, uint64_t trace_key = 0)
        : inputs(d), n(procs), seed(s), opts(o), traceKey(trace_key)
    {
    }

    const DerivedInputs &inputs;
    unsigned n;
    const MvaSeed &seed;
    const MvaOptions &opts;
    /** TraceTaskScope id for the replay; 0 = the ambient task. */
    uint64_t traceKey;

    MvaFaults faults;
    MvaStepConstants consts;
    double wBus = 0.0, wMem = 0.0, rTotal = 0.0; ///< the damped iterate
    MvaStepValues last;   ///< measures of the last committed iteration
    double residual = 0.0; ///< |R_k - R_{k-1}| of the last iteration
    /** mvaStepSize of the last iteration; 0 before the first. */
    double stepPrev = 0.0;
    int iterations = 0;   ///< iterations of the current attempt
    int cap = 0;          ///< iteration cap of the current attempt
    long itersUsed = 0;   ///< iterations across the whole ladder
    size_t rung = 0;      ///< current ladder rung index
    std::vector<double> ladder;
    bool active = false; ///< admitted and not yet finished
    bool converged = false, nonFinite = false, budgetOut = false;
    bool timed = false, warm = false;
    bool recordIters = false; ///< buffer deltas for the trace replay
    clock::time_point deadline;
    std::vector<SolveAttempt> attempts;
    std::vector<double> convTrace;
    /** Per attempt: the iteration deltas buffered for replay. */
    std::vector<std::vector<double>> replay;

    /**
     * The scalar prologue: option, processor-count and seed checks
     * (the error is the lane's result), then metrics, ladder, first
     * attempt cap, deadline, and the seeded iterate.
     */
    std::optional<SolveError> admit(const MvaFaults &armed);

    /** Reset the per-attempt state to the seed: every ladder attempt
     * restarts from the original seed. */
    void restartAttempt();

    /**
     * One iteration of eqs. (1)-(13): the shared mvaStep, the mva.nan
     * injection, the non-finite bail-out, the damped update, and the
     * convergence and cap checks. True when the attempt has ended.
     */
    bool step();

    /**
     * Record the ended attempt, then either restart on the next rung
     * (false) or stop: converged, out of time, out of iteration
     * budget, or out of rungs (true; the lane is then inactive).
     */
    bool endAttempt();

    /**
     * The epilogue of a finished lane: replay its trace, assemble the
     * result, and judge it - disposition, then the numeric boundary.
     * Consumes the lane's attempt record.
     */
    Expected<MvaResult> finish();
};

/**
 * The scalar driver: round-robin over the active lanes, checking each
 * lane's deadline and then advancing it one step, until every lane has
 * finished. @p done(i) runs as lane i finishes, in finishing order.
 * Round-robin (rather than one lane after another) keeps a block of
 * time-budgeted lanes inside their budgets, which all start at
 * admission.
 */
template <class Done>
void
runMvaLanes(MvaLane *lanes, size_t count, Done &&done)
{
    size_t remaining = 0;
    for (size_t i = 0; i < count; ++i)
        remaining += lanes[i].active ? 1 : 0;
    while (remaining > 0) {
        for (size_t i = 0; i < count; ++i) {
            MvaLane &lane = lanes[i];
            if (!lane.active)
                continue;
            if (lane.timed && MvaLane::clock::now() >= lane.deadline)
                lane.budgetOut = true;
            else if (!lane.step())
                continue;
            if (lane.endAttempt()) {
                done(i);
                --remaining;
            }
        }
    }
}

/**
 * The ladder driver of the model's extensions (solveMulticlass,
 * solveHierarchical), whose fixed points carry more waits than a lane
 * holds. @p opts is admitted first: checkMvaOptions' rules, plus
 * timeBudget, iterationBudget and recordTrace, which these drivers do
 * not honour, left at their defaults; a violation throws an
 * InvalidArgument SolveException reported at @p site naming the
 * field. @p solve_once(damping) runs one attempt from the cold start
 * and returns its result (`.converged`, `.iterations`); the driver
 * runs it for each damping of recoveryLadder(opts.damping) until one
 * converges. mva.first_attempt and mva.nonconverge mark the attempts
 * they cover unconverged after they ran. Every attempt adds to the
 * <scope>.attempts and <scope>.iterations metrics and records a
 * <scope>.attempt Phase instant keyed by its rung. If none converged,
 * opts.onNonConvergence judges the solve: Fatal throws "no
 * convergence after <maxIterations> iterations<detail>" as a
 * SolveException reported at @p site, Accept returns the last
 * attempt.
 */
template <class SolveOnce>
auto
runRecoveryLadder(const MvaOptions &opts, const char *scope,
                  const char *site, const std::string &detail,
                  SolveOnce &&solve_once)
{
    if (auto err = checkMvaOptions(opts)) {
        err->site = site;
        throw SolveException(std::move(*err));
    }
    const char *ignored = opts.timeBudget != 0.0 ? "timeBudget"
        : opts.iterationBudget != 0              ? "iterationBudget"
        : opts.recordTrace                       ? "recordTrace"
                                                 : nullptr;
    if (ignored != nullptr) {
        throw SolveException(makeError(
            SolveErrorCode::InvalidArgument, site,
            "%s is not supported here; leave it at its default",
            ignored));
    }
    const MvaFaults faults = MvaFaults::armed();
    const std::vector<double> ladder = recoveryLadder(opts.damping);
    const std::string name(scope);
    decltype(solve_once(opts.damping)) res;
    for (size_t rung = 0; rung < ladder.size(); ++rung) {
        res = solve_once(ladder[rung]);
        if (faults.nonconverge || (faults.first && rung == 0))
            res.converged = false;
        metricAdd((name + ".attempts").c_str());
        metricAdd((name + ".iterations").c_str(), res.iterations);
        if (traceEnabled(TraceLevel::Phase)) {
            traceInstant(TraceLevel::Phase, (name + ".attempt").c_str(),
                         static_cast<uint64_t>(rung),
                         strprintf("\"damping\":%g,\"iterations\":%d,"
                                   "\"converged\":%s",
                                   ladder[rung], res.iterations,
                                   res.converged ? "true" : "false"));
        }
        if (res.converged)
            return res;
    }
    switch (opts.onNonConvergence) {
      case NonConvergencePolicy::Fatal:
        throw SolveException(makeError(
            SolveErrorCode::NonConvergence, site,
            "no convergence after %d iterations%s", opts.maxIterations,
            detail.c_str()));
      case NonConvergencePolicy::Accept:
        break;
    }
    return res;
}

} // namespace snoop
