#include "mva/lane.hh"

#include <algorithm>
#include <cmath>

#include "observe/metrics.hh"
#include "observe/trace.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace snoop {

namespace {

/**
 * Validity contract on a finished solve: the measures the paper
 * publishes (speedup, R, utilizations, busy probabilities) must be
 * finite and inside their defining ranges regardless of how hard the
 * fixed point fought. Anything else is corrupted solver state,
 * reported as a NumericRange error rather than a panic so one bad
 * grid point cannot take down a sweep or a serve batch.
 */
std::optional<SolveError>
validateMvaResult(const MvaResult &res)
{
    // kind: 0 = strictly positive, 1 = non-negative, 2 = in [0, 1]
    struct Check { const char *name; double value; int kind; };
    const Check checks[] = {
        {"responseTime", res.responseTime, 0},
        {"speedup", res.speedup, 0},
        {"processingPower", res.processingPower, 1},
        {"rLocal", res.rLocal, 1},
        {"rBroadcast", res.rBroadcast, 1},
        {"rRemoteRead", res.rRemoteRead, 1},
        {"wBus", res.wBus, 1},
        {"wMem", res.wMem, 1},
        {"qBus", res.qBus, 1},
        {"busUtil", res.busUtil, 2},
        {"memUtil", res.memUtil, 2},
        {"pBusyBus", res.pBusyBus, 2},
        {"pBusyMem", res.pBusyMem, 2},
        {"nInterference", res.nInterference, 1},
        {"tInterference", res.tInterference, 1},
    };
    for (const auto &c : checks) {
        const char *violated = nullptr;
        if (!std::isfinite(c.value))
            violated = "a finite value";
        else if (c.kind == 0 && c.value <= 0.0)
            violated = "> 0";
        else if (c.kind >= 1 && c.value < 0.0)
            violated = ">= 0";
        else if (c.kind == 2 && c.value > 1.0)
            violated = "[0, 1]";
        if (violated) {
            return makeError(
                SolveErrorCode::NumericRange, "MvaSolver",
                "%s = %g violates %s (N=%u, protocol %s)", c.name,
                c.value, violated, res.numProcessors,
                res.inputs.protocol.name().c_str());
        }
    }
    return std::nullopt;
}

/**
 * Disposition: a time budget that expired before any iteration
 * completed is a BudgetExhausted *error* (the untouched cold/warm
 * start would otherwise masquerade as perfect linear speedup); a
 * non-finite iterate is NonFiniteIterate; anything else unconverged
 * is judged by the onNonConvergence policy.
 */
Expected<MvaResult>
disposeMvaResult(MvaResult res, const MvaOptions &opts, unsigned n,
                 const DerivedInputs &d)
{
    if (res.budgetExhausted && res.iterations == 0) {
        return makeError(
            SolveErrorCode::BudgetExhausted, "MvaSolver::solve",
            "time budget (%g s) expired before the first iteration "
            "(N=%u, protocol %s)", opts.timeBudget, n,
            d.protocol.name().c_str());
    }
    if (res.nonFinite) {
        return makeError(
            SolveErrorCode::NonFiniteIterate, "MvaSolver::solve",
            "iterate became non-finite at iteration %d (N=%u, "
            "protocol %s)", res.iterations, n,
            d.protocol.name().c_str());
    }
    if (!res.converged &&
        opts.onNonConvergence == NonConvergencePolicy::Fatal) {
        return makeError(
            res.budgetExhausted ? SolveErrorCode::BudgetExhausted
                                : SolveErrorCode::NonConvergence,
            "MvaSolver::solve",
            "no convergence after %d iterations (N=%u, protocol %s%s)",
            res.iterations, n, d.protocol.name().c_str(),
            res.budgetExhausted ? ", budget exhausted" : "");
    }
    return res;
}

/**
 * Record a finished lane's trace: one mva.solve Phase span over the
 * whole solve holding the buffered mva.iteration instants (Iteration
 * level) and then the mva.attempt instant. Recorded under the lane's
 * task scope, or the ambient task for traceKey 0, so the event set
 * never depends on which worker or tick finished the lane.
 */
void
replayTrace(const MvaLane &lane, const SolveAttempt &a)
{
    std::optional<TraceTaskScope> scope;
    if (lane.traceKey != 0)
        scope.emplace(lane.traceKey);
    TraceSpan span(TraceLevel::Phase, "mva.solve", lane.n);
    if (span.active()) {
        span.setArgs(strprintf("\"protocol\":\"%s\",\"warm\":%s",
                               lane.inputs.protocol.name().c_str(),
                               lane.warm ? "true" : "false"));
    }
    if (traceEnabled(TraceLevel::Iteration)) {
        for (size_t t = 0; t < lane.replay.size(); ++t) {
            traceInstant(TraceLevel::Iteration, "mva.iteration",
                         static_cast<uint64_t>(t + 1),
                         strprintf("\"delta\":%.17g,\"damping\":%g",
                                   lane.replay[t], a.damping));
        }
    }
    traceInstant(TraceLevel::Phase, "mva.attempt", 0,
                 strprintf("\"damping\":%g,\"iterations\":%d,"
                           "\"residual\":%.17g,\"converged\":%s",
                           a.damping, a.iterations, a.residual,
                           a.converged ? "true" : "false"));
}

} // namespace

MvaFaults
MvaFaults::armed()
{
    MvaFaults f;
    f.nan = faultArmed("mva.nan");
    f.nonconverge = faultArmed("mva.nonconverge");
    return f;
}

std::optional<SolveError>
MvaLane::admit(const MvaFaults &armed)
{
    if (auto err = checkMvaOptions(opts))
        return err;
    if (n == 0) {
        return makeError(SolveErrorCode::InvalidArgument,
                         "MvaSolver::solve",
                         "need at least one processor");
    }
    if (auto err = checkMvaSeed(seed))
        return err;

    metricAdd("mva.solves");
    warm = seed.wBus != 0.0 || seed.wMem != 0.0 || seed.rTotal != 0.0;
    if (warm)
        metricAdd("mva.warm_solves");
    faults = armed;
    recordIters = traceEnabled(TraceLevel::Iteration);
    consts = mvaStepConstants(inputs, n);

    timed = opts.timeBudget > 0.0;
    if (timed) {
        deadline = clock::now() +
            std::chrono::duration_cast<clock::duration>(
                std::chrono::duration<double>(opts.timeBudget));
    }
    cap = opts.maxIterations;
    if (opts.iterationBudget > 0 && opts.iterationBudget < cap)
        cap = static_cast<int>(opts.iterationBudget);

    // Section 3.2: start with all waiting times set to zero and
    // R = tau + T_supply - or, under warm-start continuation, from
    // the full seeded state of a neighboring solution (the all-zero
    // MvaSeed reproduces the paper's cold start exactly).
    wBus = seed.wBus;
    wMem = seed.wMem;
    rTotal = seed.rTotal > 0.0 ? seed.rTotal : inputs.tau + consts.tSupply;
    active = true;
    return std::nullopt;
}

bool
MvaLane::step()
{
    const MvaStepValues o = mvaStep(consts, wBus, wMem, rTotal);
    const int it = iterations + 1;
    double w_bus_new = o.wBusNew;
    if (faults.nan && it == 2)
        w_bus_new = std::nan("");

    // Abort before the poisoned values reach the damped state, so the
    // result keeps the last finite iterate.
    if (!std::isfinite(o.rNew) || !std::isfinite(w_bus_new) ||
        !std::isfinite(o.wMemNew)) {
        iterations = it;
        nonFinite = true;
        return true;
    }

    const double damping = opts.damping;
    const double w_bus_next = damping * w_bus_new + (1.0 - damping) * wBus;
    const double w_mem_next = damping * o.wMemNew + (1.0 - damping) * wMem;
    const double delta = std::fabs(o.rNew - rTotal);
    const double step_size = mvaStepSize(w_bus_next, wBus, w_mem_next,
                                         wMem, o.rNew, rTotal);
    if (opts.recordTrace)
        convTrace.push_back(delta);
    if (recordIters)
        replay.push_back(delta);

    wBus = w_bus_next;
    wMem = w_mem_next;
    rTotal = o.rNew;
    iterations = it;
    residual = delta;
    last = o;

    if (!faults.nonconverge && mvaConverged(step_size, opts.tolerance)) {
        converged = true;
        return true;
    }
    return it >= cap;
}

Expected<MvaResult>
MvaLane::finish()
{
    active = false;
    // An unconverged solve that used up its iteration budget was
    // stopped by the budget, not by maxIterations alone.
    if (!converged && !nonFinite && opts.iterationBudget > 0 &&
        iterations >= opts.iterationBudget)
        budgetOut = true;
    metricAdd("mva.iterations", iterations);
    const SolveAttempt attempt{opts.damping, iterations, residual,
                               converged, nonFinite};
    if (traceEnabled(TraceLevel::Phase))
        replayTrace(*this, attempt);

    MvaResult r;
    r.numProcessors = n;
    r.inputs = inputs;
    r.warmStarted = warm;
    r.iterations = iterations;
    r.converged = converged;
    r.residual = residual;
    r.nonFinite = nonFinite;
    r.budgetExhausted = budgetOut;
    r.rLocal = last.rLocal;
    r.rBroadcast = last.rBc;
    r.rRemoteRead = last.rRr;
    r.qBus = last.qBus;
    // The raw utilizations are capped at 1 for reporting; the uncapped
    // values fed the p-busy corrections inside the step.
    r.busUtil = std::min(last.uBus, 1.0);
    r.pBusyBus = last.pBusyBus;
    r.tBus = last.tBus;
    r.tResBus = last.tResBus;
    r.memUtil = std::min(last.uMem, 1.0);
    r.pBusyMem = last.pBusyMem;
    r.nInterference = last.nInt;
    // t_interference is reported once an iteration has committed (a
    // non-finite step commits nothing).
    r.tInterference =
        iterations > (nonFinite ? 1 : 0) ? consts.appendixB.tInt : 0.0;
    r.wBus = wBus;
    r.wMem = wMem;
    r.responseTime = rTotal;
    r.speedup = consts.numProc * (inputs.tau + consts.tSupply) / rTotal;
    r.processingPower = consts.numProc * inputs.tau / rTotal;
    r.attempts = {attempt};
    r.convergenceTrace = std::move(convTrace);

    SNOOP_TRY(MvaResult fin, disposeMvaResult(std::move(r), opts, n, inputs));
    if (auto err = validateMvaResult(fin))
        return std::move(*err);
    return fin;
}

} // namespace snoop
