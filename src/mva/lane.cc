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
 * End-of-ladder disposition: a time budget that expired before any
 * iteration completed is a BudgetExhausted *error* (the untouched
 * cold/warm start would otherwise masquerade as perfect linear
 * speedup); a non-finite iterate that survived every rung is
 * NonFiniteIterate; anything else unconverged is judged by the
 * onNonConvergence policy.
 */
Expected<MvaResult>
disposeMvaResult(MvaResult res, const MvaOptions &opts, long iters_used,
                 unsigned n, const DerivedInputs &d)
{
    if (res.budgetExhausted && iters_used == 0) {
        return makeError(
            SolveErrorCode::BudgetExhausted, "MvaSolver::solve",
            "time budget (%g s) expired before the first iteration "
            "(N=%u, protocol %s)", opts.timeBudget, n,
            d.protocol.name().c_str());
    }
    if (res.nonFinite && !res.budgetExhausted) {
        return makeError(
            SolveErrorCode::NonFiniteIterate, "MvaSolver::solve",
            "iterate became non-finite in all %zu damping attempts "
            "(N=%u, protocol %s)", res.attempts.size(), n,
            d.protocol.name().c_str());
    }
    if (!res.converged) {
        switch (opts.onNonConvergence) {
          case NonConvergencePolicy::Fatal:
            return makeError(
                res.budgetExhausted ? SolveErrorCode::BudgetExhausted
                                    : SolveErrorCode::NonConvergence,
                "MvaSolver::solve",
                "no convergence after %d iterations across %zu attempts "
                "(N=%u, protocol %s%s)", opts.maxIterations,
                res.attempts.size(), n, d.protocol.name().c_str(),
                res.budgetExhausted ? ", budget exhausted" : "");
          case NonConvergencePolicy::Accept:
            break;
        }
    }
    return res;
}

/**
 * Record a finished lane's trace: one mva.solve Phase span over the
 * whole solve, per attempt the buffered mva.iteration instants
 * (Iteration level) followed by the attempt's mva.attempt instant.
 * Recorded under the lane's task scope, or the ambient task for
 * traceKey 0, so the event set never depends on which worker or tick
 * finished the lane.
 */
void
replayTrace(const MvaLane &lane)
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
    const bool iter_trace = traceEnabled(TraceLevel::Iteration);
    for (size_t k = 0; k < lane.attempts.size(); ++k) {
        const SolveAttempt &a = lane.attempts[k];
        if (iter_trace && k < lane.replay.size()) {
            const std::vector<double> &deltas = lane.replay[k];
            for (size_t t = 0; t < deltas.size(); ++t) {
                traceInstant(TraceLevel::Iteration, "mva.iteration",
                             static_cast<uint64_t>(t + 1),
                             strprintf("\"delta\":%.17g,\"damping\":%g",
                                       deltas[t], a.damping));
            }
        }
        traceInstant(TraceLevel::Phase, "mva.attempt",
                     static_cast<uint64_t>(k),
                     strprintf("\"damping\":%g,\"iterations\":%d,"
                               "\"residual\":%.17g,\"converged\":%s",
                               a.damping, a.iterations, a.residual,
                               a.converged ? "true" : "false"));
    }
}

} // namespace

MvaFaults
MvaFaults::armed()
{
    MvaFaults f;
    f.nan = faultArmed("mva.nan");
    f.nonconverge = faultArmed("mva.nonconverge");
    f.first = faultArmed("mva.first_attempt");
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

    // The paper's plain successive substitution (Section 3.2)
    // converges quickly below saturation. Deep in saturation it can
    // cycle or blow up, so a failed attempt re-runs the whole solve
    // from the seed with a heavier fixed damping factor: the
    // configured damping first, then every shared rung below it.
    ladder = recoveryLadder(opts.damping);

    // Budgets span the whole ladder: the deadline is checked before
    // every step, the iteration budget shrinks each attempt's cap.
    timed = opts.timeBudget > 0.0;
    if (timed) {
        deadline = clock::now() +
            std::chrono::duration_cast<clock::duration>(
                std::chrono::duration<double>(opts.timeBudget));
    }
    cap = opts.maxIterations;
    if (opts.iterationBudget > 0 && opts.iterationBudget < cap)
        cap = static_cast<int>(opts.iterationBudget);
    restartAttempt();
    active = true;
    return std::nullopt;
}

void
MvaLane::restartAttempt()
{
    // Section 3.2: start with all waiting times set to zero and
    // R = tau + T_supply - or, under warm-start continuation, from
    // the full seeded state of a neighboring solution (the all-zero
    // MvaSeed reproduces the paper's cold start exactly).
    wBus = seed.wBus;
    wMem = seed.wMem;
    rTotal = seed.rTotal > 0.0 ? seed.rTotal : inputs.tau + consts.tSupply;
    last = MvaStepValues{};
    residual = 0.0;
    iterations = 0;
    converged = nonFinite = budgetOut = false;
    convTrace.clear();
    if (recordIters)
        replay.emplace_back();
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
    // result keeps the last finite iterate and the ladder can retry
    // from a clean slate.
    if (!std::isfinite(o.rNew) || !std::isfinite(w_bus_new) ||
        !std::isfinite(o.wMemNew)) {
        iterations = it;
        nonFinite = true;
        return true;
    }

    const double damping = ladder[rung];
    const double w_bus_next = damping * w_bus_new + (1.0 - damping) * wBus;
    const double w_mem_next = damping * o.wMemNew + (1.0 - damping) * wMem;
    const double delta = std::fabs(o.rNew - rTotal);
    if (opts.recordTrace)
        convTrace.push_back(delta);
    if (recordIters)
        replay.back().push_back(delta);

    wBus = w_bus_next;
    wMem = w_mem_next;
    rTotal = o.rNew;
    iterations = it;
    residual = delta;
    last = o;

    const bool force = faults.nonconverge || (faults.first && rung == 0);
    if (!force &&
        delta < opts.tolerance * std::max(1.0, std::fabs(rTotal))) {
        converged = true;
        return true;
    }
    return it >= cap;
}

bool
MvaLane::endAttempt()
{
    SolveAttempt a;
    a.damping = ladder[rung];
    a.iterations = iterations;
    a.residual = residual;
    a.converged = converged;
    a.nonFinite = nonFinite;
    attempts.push_back(a);
    itersUsed += iterations;
    metricAdd("mva.attempts");
    metricAdd("mva.iterations", iterations);

    bool stop = converged || budgetOut || rung + 1 >= ladder.size();
    // Next rung: shrink the cap under an iteration budget and honor
    // the wall clock before restarting - a retry launched past the
    // deadline would replace this attempt's state with a
    // zero-iteration restart.
    int next_cap = opts.maxIterations;
    if (!stop && opts.iterationBudget > 0) {
        const long rem = opts.iterationBudget - itersUsed;
        if (rem <= 0)
            budgetOut = stop = true;
        else if (rem < next_cap)
            next_cap = static_cast<int>(rem);
    }
    if (!stop && timed && clock::now() >= deadline)
        budgetOut = stop = true;
    if (stop) {
        active = false;
        return true;
    }
    ++rung;
    cap = next_cap;
    restartAttempt();
    return false;
}

Expected<MvaResult>
MvaLane::finish()
{
    if (traceEnabled(TraceLevel::Phase))
        replayTrace(*this);

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
    // t_interference is reported once an iteration of the final
    // attempt has committed (a non-finite step commits nothing).
    r.tInterference =
        iterations > (nonFinite ? 1 : 0) ? consts.tInt : 0.0;
    r.wBus = wBus;
    r.wMem = wMem;
    r.responseTime = rTotal;
    r.speedup = consts.numProc * (inputs.tau + consts.tSupply) / rTotal;
    r.processingPower = consts.numProc * inputs.tau / rTotal;
    r.attempts = std::move(attempts);
    r.convergenceTrace = std::move(convTrace);

    SNOOP_TRY(MvaResult fin,
              disposeMvaResult(std::move(r), opts, itersUsed, n, inputs));
    if (auto err = validateMvaResult(fin))
        return std::move(*err);
    return fin;
}

} // namespace snoop
