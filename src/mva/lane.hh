#pragma once

/**
 * @file
 * One MVA lane: everything a solve does around the shared step of
 * mva/kernel.hh - admission, the iteration and wall-clock budgets,
 * disposition, and trace replay - plus the round-robin scalar driver
 * over a set of lanes.
 *
 * This is the only scalar driver of the customized MVA model.
 * MvaSolver::trySolve runs it on one stack-resident lane;
 * BatchMvaSolver runs it over a block when a solver fault is armed or
 * a lane has a time budget, and otherwise advances the same lane
 * records through its fused SoA tick, handing each ended lane back to
 * finish().
 *
 * The model's extensions (solveMulticlass, solveHierarchical) iterate
 * more waits than a lane holds; they share the option admission and
 * the non-convergence judgement of solveExtension().
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
    bool nonconverge = false; ///< mva.nonconverge: the solve fails

    /** The currently armed sites. */
    static MvaFaults armed();
    bool any() const { return nan || nonconverge; }
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
    int iterations = 0;   ///< iterations performed
    int cap = 0;          ///< iteration cap: maxIterations or the budget
    bool active = false; ///< admitted and not yet finished
    bool converged = false, nonFinite = false, budgetOut = false;
    bool timed = false, warm = false;
    bool recordIters = false; ///< buffer deltas for the trace replay
    clock::time_point deadline;
    /** The iteration deltas buffered for the trace replay. */
    std::vector<double> replay;

    /**
     * The scalar prologue: option, processor-count and seed checks
     * (the error is the lane's result), then metrics, cap, deadline,
     * and the seeded iterate.
     */
    std::optional<SolveError> admit(const MvaFaults &armed);

    /**
     * One iteration of eqs. (1)-(13): the shared mvaStep, the mva.nan
     * injection, the non-finite bail-out, the damped update, and the
     * convergence and cap checks. True when the solve has ended.
     */
    bool step();

    /**
     * The epilogue of an ended lane: replay its trace, assemble the
     * result with its one-entry attempt record, and judge it -
     * disposition, then the numeric boundary.
     */
    Expected<MvaResult> finish();
};

/**
 * The scalar driver: round-robin over the active lanes, checking each
 * lane's deadline and then advancing it one step, until every lane has
 * ended. @p done(i) runs as lane i ends, in ending order, and must
 * call its MvaLane::finish(), which marks it inactive.
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
            done(i);
            --remaining;
        }
    }
}

/**
 * The shared frame of the model's extensions (solveMulticlass,
 * solveHierarchical), whose fixed points carry more waits than a lane
 * holds. @p opts is admitted first: checkMvaOptions' rules, plus
 * timeBudget and iterationBudget, which these drivers do not honour,
 * left at their defaults; a violation throws an
 * InvalidArgument SolveException reported at @p site naming the
 * field. @p solve() then runs the fixed point from the cold start and
 * returns its result (`.converged`, `.iterations`); mva.nonconverge
 * marks it unconverged after it ran. The solve adds to the
 * <scope>.iterations metric and records a <scope>.attempt Phase
 * instant. If it did not converge, opts.onNonConvergence judges it:
 * Fatal throws "no convergence after <maxIterations>
 * iterations<detail>" as a NonConvergence SolveException reported at
 * @p site, Accept returns it.
 */
template <class Solve>
auto
solveExtension(const MvaOptions &opts, const char *scope,
               const char *site, const std::string &detail,
               Solve &&solve)
{
    if (auto err = checkMvaOptions(opts)) {
        err->site = site;
        throw SolveException(std::move(*err));
    }
    const char *ignored = opts.timeBudget != 0.0 ? "timeBudget"
        : opts.iterationBudget != 0              ? "iterationBudget"
                                                 : nullptr;
    if (ignored != nullptr) {
        throw SolveException(makeError(
            SolveErrorCode::InvalidArgument, site,
            "%s is not supported here; leave it at its default",
            ignored));
    }
    auto res = solve();
    if (MvaFaults::armed().nonconverge)
        res.converged = false;
    const std::string name(scope);
    metricAdd((name + ".iterations").c_str(), res.iterations);
    if (traceEnabled(TraceLevel::Phase)) {
        traceInstant(TraceLevel::Phase, (name + ".attempt").c_str(), 0,
                     strprintf("\"damping\":%g,\"iterations\":%d,"
                               "\"converged\":%s",
                               opts.damping, res.iterations,
                               res.converged ? "true" : "false"));
    }
    if (!res.converged &&
        opts.onNonConvergence == NonConvergencePolicy::Fatal) {
        throw SolveException(makeError(
            SolveErrorCode::NonConvergence, site,
            "no convergence after %d iterations%s", opts.maxIterations,
            detail.c_str()));
    }
    return res;
}

} // namespace snoop
