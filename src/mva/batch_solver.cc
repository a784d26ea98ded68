#include "mva/batch_solver.hh"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <numeric>
#include <optional>

#include "mva/kernel.hh"
#include "mva/lane.hh"
#include "observe/metrics.hh"
#include "util/contracts.hh"
#include "util/parallel.hh"

namespace snoop {

namespace {

/**
 * SoA widths per parallelFor work item. A work item is the unit of
 * pool parallelism AND the refill pool for one lockstep SoA: wider
 * items keep the SIMD tick fuller (more lanes to backfill retiring
 * slots), narrower items expose more parallelism to the thread pool.
 * Eight widths (128 lanes at the default blockSize) keeps the tick
 * >95% occupied on Table 4-1-shaped grids while still splitting a
 * full sweep into plenty of work items.
 */
constexpr size_t kBlocksPerItem = 8;

/**
 * The hot structure-of-arrays the vectorized tick runs over: one
 * contiguous array per step constant and per iterate variable,
 * indexed by *slot*. Slots are kept dense by swap-compaction as lanes
 * retire, so fusedTick below is a branch-free loop over [0, n) the
 * compiler can turn into SIMD lanes - no masked-off dead work, no
 * gather through an index array.
 *
 * Only the per-tick arithmetic lives here. Everything the epilogue
 * needs (attempt records, measures, traces) stays in the MvaLane
 * record of the original lane id (`lane[slot]`), and is synced once
 * at attempt boundaries rather than every tick. To rebuild the
 * last-committed measures at retirement without storing them per
 * tick, the tick keeps a two-deep history ring of the iterate
 * (prev* = one tick back, pprev* = two ticks back): the retirement
 * path replays the shared scalar mvaStep on the saved state, which by
 * the bit-identity contract reproduces exactly what the fused loop
 * computed.
 */
struct HotSoA
{
    // Step constants (mvaStepConstants fields, plus the precomputed
    // forms the branchless tick consumes; invModules mirrors the
    // scalar step's per-iteration `1.0 / c.modules` subexpression,
    // same operands so the same bits).
    std::vector<double> numProc, tau, pLocal, pBc, pRr, tRead,
        memFactor, tWrite, tSupply, dMem, invModules, p, pPrime,
        log2PPrime, tInt, nMinus1, gt1;
    // Iterate, its two-tick history ring, and per-slot control. The
    // iteration counter and cap live as doubles so the fused tick can
    // count and compare them in SIMD lanes (both are integer-valued
    // and far below 2^53, so the comparisons are exact). sPrev is
    // MvaLane::stepPrev: the last tick's step size, 0 before the
    // first tick of an attempt. done is the tick's verdict: 0 the
    // attempt goes on, 1 it ended unconverged (cap or non-finite
    // iterate), 2 it converged.
    std::vector<double> wb, wm, rt;
    std::vector<double> prevWb, prevWm, prevRt;
    std::vector<double> pprevWb, pprevWm, pprevRt;
    std::vector<double> damp, tol, delta, sPrev, iterD, capD, done;
    std::vector<size_t> lane; ///< slot -> lane id in the block
    size_t n = 0;             ///< live slot count (dense prefix)

    void push(const MvaLane &ln, size_t i)
    {
        const MvaStepConstants &c = ln.consts;
        numProc.push_back(c.numProc);
        tau.push_back(c.tau);
        pLocal.push_back(c.pLocal);
        pBc.push_back(c.pBc);
        pRr.push_back(c.pRr);
        tRead.push_back(c.tRead);
        memFactor.push_back(c.memFactor);
        tWrite.push_back(c.tWrite);
        tSupply.push_back(c.tSupply);
        dMem.push_back(c.dMem);
        invModules.push_back(1.0 / c.modules);
        p.push_back(c.p);
        pPrime.push_back(c.pPrime);
        log2PPrime.push_back(c.log2PPrime);
        tInt.push_back(c.tInt);
        nMinus1.push_back(c.numProc - 1.0);
        gt1.push_back(c.n > 1 ? 1.0 : 0.0);
        wb.push_back(ln.wBus);
        wm.push_back(ln.wMem);
        rt.push_back(ln.rTotal);
        prevWb.push_back(0.0);
        prevWm.push_back(0.0);
        prevRt.push_back(0.0);
        pprevWb.push_back(0.0);
        pprevWm.push_back(0.0);
        pprevRt.push_back(0.0);
        damp.push_back(ln.ladder[ln.rung]);
        tol.push_back(ln.opts.tolerance);
        delta.push_back(0.0);
        sPrev.push_back(ln.stepPrev);
        iterD.push_back(0.0);
        capD.push_back(static_cast<double>(ln.cap));
        done.push_back(0.0);
        lane.push_back(i);
        ++n;
    }

    /** Advance the history ring before a tick: the buffers swap so
     * pprev* takes over prev*'s contents, and the tick itself stores
     * each slot's pre-tick iterate into prev* as it reads it. */
    void rotateHistory()
    {
        std::swap(pprevWb, prevWb);
        std::swap(pprevWm, prevWm);
        std::swap(pprevRt, prevRt);
    }

    /** Re-seed slot @p s after MvaLane::endAttempt restarted its
     * lane @p ln on the next ladder rung. */
    void restartSlot(size_t s, const MvaLane &ln)
    {
        wb[s] = ln.wBus;
        wm[s] = ln.wMem;
        rt[s] = ln.rTotal;
        damp[s] = ln.ladder[ln.rung];
        capD[s] = static_cast<double>(ln.cap);
        sPrev[s] = ln.stepPrev;
        iterD[s] = 0.0;
        done[s] = 0.0;
    }

    /** Retire slot @p s: move the last live slot into it (every
     * per-slot array, history ring included - the moved lane's saved
     * states travel with it) and shrink the dense prefix. */
    void removeSlot(size_t s)
    {
        const size_t b = n - 1;
        numProc[s] = numProc[b];
        tau[s] = tau[b];
        pLocal[s] = pLocal[b];
        pBc[s] = pBc[b];
        pRr[s] = pRr[b];
        tRead[s] = tRead[b];
        memFactor[s] = memFactor[b];
        tWrite[s] = tWrite[b];
        tSupply[s] = tSupply[b];
        dMem[s] = dMem[b];
        invModules[s] = invModules[b];
        p[s] = p[b];
        pPrime[s] = pPrime[b];
        log2PPrime[s] = log2PPrime[b];
        tInt[s] = tInt[b];
        nMinus1[s] = nMinus1[b];
        gt1[s] = gt1[b];
        wb[s] = wb[b];
        wm[s] = wm[b];
        rt[s] = rt[b];
        prevWb[s] = prevWb[b];
        prevWm[s] = prevWm[b];
        prevRt[s] = prevRt[b];
        pprevWb[s] = pprevWb[b];
        pprevWm[s] = pprevWm[b];
        pprevRt[s] = pprevRt[b];
        damp[s] = damp[b];
        tol[s] = tol[b];
        delta[s] = delta[b];
        sPrev[s] = sPrev[b];
        iterD[s] = iterD[b];
        capD[s] = capD[b];
        done[s] = done[b];
        lane[s] = lane[b];
        // Shrink every array with the live count so push() appends at
        // slot n again - a refilled lane must land inside the dense
        // prefix the tick iterates, not past it.
        numProc.pop_back();
        tau.pop_back();
        pLocal.pop_back();
        pBc.pop_back();
        pRr.pop_back();
        tRead.pop_back();
        memFactor.pop_back();
        tWrite.pop_back();
        tSupply.pop_back();
        dMem.pop_back();
        invModules.pop_back();
        p.pop_back();
        pPrime.pop_back();
        log2PPrime.pop_back();
        tInt.pop_back();
        nMinus1.pop_back();
        gt1.pop_back();
        wb.pop_back();
        wm.pop_back();
        rt.pop_back();
        prevWb.pop_back();
        prevWm.pop_back();
        prevRt.pop_back();
        pprevWb.pop_back();
        pprevWm.pop_back();
        pprevRt.pop_back();
        damp.pop_back();
        tol.pop_back();
        delta.pop_back();
        sPrev.pop_back();
        iterD.pop_back();
        capD.pop_back();
        done.pop_back();
        lane.pop_back();
        n = b;
    }
};

#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
/** Compile the fused tick once per x86 SIMD level and dispatch at
 * load time, so one portable binary still gets 4- or 8-wide lanes on
 * AVX2/AVX-512 hosts. Every clone performs the same IEEE operations
 * in the same order, so the selected clone never changes the bits.
 * Not under ThreadSanitizer: the instrumented ifunc resolver runs
 * before the TSan runtime is initialized and crashes the process
 * before main(). */
#define SNOOP_MVA_TICK_CLONES \
    __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define SNOOP_MVA_TICK_CLONES
#endif

/**
 * One lockstep iteration of eqs. (1)-(13) for every live slot: the
 * mvaStep arithmetic plus the damped update, rewritten branch-free
 * (every conditional becomes compute-then-select, which commits the
 * same value the scalar branch commits - discarded paths may form
 * NaNs, selects drop them) so the whole body if-converts and
 * vectorizes. The value sequence per slot is exactly the shared
 * scalar kernel's: same association, true divisions kept as
 * divisions, std::min/max/clamp with the scalar NaN semantics, and
 * the same mvaExp2 for the eq. (13) power - that is what makes batch
 * results bit-identical to per-cell trySolve (MvaLane::step).
 *
 * Writes back wb/wm/rt, the R delta, the step size (into sPrev, for
 * the next tick's stop test), the pre-tick iterate (into prev*,
 * completing the caller's history-ring rotation), the advanced
 * iteration count, and a per-slot `done` verdict that goes nonzero
 * when the lane converged (2, by the shared mvaConverged on the same
 * values MvaLane::step passes it), hit its iteration cap or produced
 * a non-finite iterate (1). The verdict lets the caller skip its
 * scalar post-pass on the (vast majority of) ticks where no lane
 * retires; the post-pass reads convergence from it and re-derives
 * everything else from the stored values.
 *
 * The arrays arrive as restrict-qualified raw pointer parameters
 * (not a HotSoA reference) deliberately: GCC tracks restrict
 * guarantees on parameters but discards them on locals initialized
 * from vector::data(), and without them the loop fails to if-convert
 * and stays scalar.
 */
SNOOP_MVA_TICK_CLONES void
fusedTick(size_t cnt, const double *__restrict numProc,
          const double *__restrict tau, const double *__restrict pLocal,
          const double *__restrict pBc, const double *__restrict pRr,
          const double *__restrict tRead,
          const double *__restrict memFactor,
          const double *__restrict tWrite,
          const double *__restrict tSupply,
          const double *__restrict dMem,
          const double *__restrict invModules,
          const double *__restrict p, const double *__restrict pPrime,
          const double *__restrict lgPP, const double *__restrict tInt,
          const double *__restrict nM1, const double *__restrict gt1,
          const double *__restrict damp, const double *__restrict tol,
          const double *__restrict capD, double *__restrict sPrev,
          double *__restrict iterD,
          double *__restrict prevWb, double *__restrict prevWm,
          double *__restrict prevRt, double *__restrict wb,
          double *__restrict wm, double *__restrict rt,
          double *__restrict delta, double *__restrict done)
{
    for (size_t s = 0; s < cnt; ++s) {
        const double wbv = wb[s];
        const double wmv = wm[s];
        const double rtv = rt[s];
        prevWb[s] = wbv;
        prevWm[s] = wmv;
        prevRt[s] = rtv;

        // eq. (6)
        const double rBc = pBc[s] * (wbv + wmv + tWrite[s]);
        const double rRr = pRr[s] * (wbv + tRead[s]);
        double q = nM1[s] * (rBc + rRr) / rtv;
        q = (gt1[s] != 0.0) ? q : 0.0;
        const double qB = std::min(q, nM1[s]);

        // eq. (13): interior branch via the hoisted log2; boundary
        // branches override it, the outer guard zeroes it.
        const double e = mvaExp2(qB * lgPP[s]);
        double nI = p[s] * (1.0 - e) / (1.0 - pPrime[s]);
        nI = (pPrime[s] >= 1.0) ? p[s] * qB : nI;
        nI = (pPrime[s] <= 0.0) ? p[s] : nI;
        nI = (gt1[s] != 0.0 && qB > 0.0 && p[s] > 0.0) ? nI : 0.0;

        // eqs. (1)-(4)
        const double rLocal = pLocal[s] * nI * tInt[s];
        const double rN = tau[s] + rLocal + rBc + rRr + tSupply[s];

        // eqs. (7)-(8): bus utilization and p-busy correction
        const double busDemand =
            pBc[s] * (wmv + tWrite[s]) + pRr[s] * tRead[s];
        const double uBus = numProc[s] * busDemand / rN;
        double ub = std::clamp(uBus, 0.0, 1.0);
        const double denB = 1.0 - ub / numProc[s];
        double pBB = std::clamp((ub - ub / numProc[s]) / denB, 0.0, 1.0);
        pBB = (denB <= 0.0) ? 1.0 : pBB;
        pBB = (gt1[s] != 0.0) ? pBB : 0.0;

        // eqs. (9)-(10)
        const double pt = pBc[s] + pRr[s];
        double tB =
            (pBc[s] * (tWrite[s] + wmv) + pRr[s] * tRead[s]) / pt;
        tB = (pt > 0.0) ? tB : 0.0;
        const double wBcW = pBc[s] * (tWrite[s] + wmv);
        const double wRrW = pRr[s] * tRead[s];
        const double wT = wBcW + wRrW;
        double tRB = wBcW / wT * (tWrite[s] + wmv) / 2.0 +
            wRrW / wT * tRead[s] / 2.0;
        tRB = (pt > 0.0 && wT > 0.0) ? tRB : 0.0;

        // eq. (5)
        double wbN = std::max(0.0, qB - pBB) * tB + pBB * tRB;
        wbN = (gt1[s] != 0.0) ? wbN : 0.0;

        // eqs. (11)-(12)
        const double uMem =
            numProc[s] * invModules[s] * memFactor[s] * dMem[s] / rN;
        double um = std::clamp(uMem, 0.0, 1.0);
        const double denM = 1.0 - um / numProc[s];
        double pBM = std::clamp((um - um / numProc[s]) / denM, 0.0, 1.0);
        pBM = (denM <= 0.0) ? 1.0 : pBM;
        pBM = (gt1[s] != 0.0) ? pBM : 0.0;
        const double wmN = pBM * dMem[s] / 2.0;

        // damped update, R delta and step size (same expressions as
        // the scalar driver)
        const double d = damp[s];
        const double wbNext = d * wbN + (1.0 - d) * wbv;
        const double wmNext = d * wmN + (1.0 - d) * wmv;
        const double dl = std::fabs(rN - rtv);
        const double st = mvaStepSize(wbNext, wbv, wmNext, wmv, rN, rtv);
        const bool conv = mvaConverged(st, sPrev[s], tol[s]);
        wb[s] = wbNext;
        wm[s] = wmNext;
        delta[s] = dl;
        sPrev[s] = st;
        rt[s] = rN;

        // The verdict, in MvaLane::step's order: a non-finite iterate
        // ends the attempt unconverged, else convergence, else the
        // cap. |x| <= DBL_MAX is isfinite in select form - false for
        // both infinities and NaN - and the verdict is chained selects
        // rather than short-circuit bools so the whole body stays
        // branch-free.
        const double itv = iterD[s] + 1.0;
        iterD[s] = itv;
        double dn = (itv >= capD[s]) ? 1.0 : 0.0;
        dn = conv ? 2.0 : dn;
        dn = (std::fabs(rN) <= DBL_MAX) ? dn : 1.0;
        dn = (std::fabs(wbNext) <= DBL_MAX) ? dn : 1.0;
        dn = (std::fabs(wmNext) <= DBL_MAX) ? dn : 1.0;
        done[s] = dn;
    }
}

} // namespace

BatchMvaSolver::BatchMvaSolver(BatchOptions opts) : opts_(opts)
{
    if (opts_.blockSize == 0)
        opts_.blockSize = 1;
}

void
BatchMvaSolver::solveBlock(const MvaJob *jobs, const size_t *idx,
                           std::optional<Expected<MvaResult>> *out,
                           size_t count) const
{
    ScopedMetricTimer block_timer("mva.batch.block_us");

    // --- Admission: the shared lane prologue per lane ---------------
    const MvaFaults faults = MvaFaults::armed();
    std::vector<MvaLane> lanes;
    lanes.reserve(count);
    bool any_timed = false;
    for (size_t i = 0; i < count; ++i) {
        const MvaJob &job = jobs[idx[i]];
        MvaLane &lane = lanes.emplace_back(job.inputs, job.n, job.seed,
                                           job.opts, job.traceKey);
        if (auto err = lane.admit(faults))
            out[idx[i]].emplace(std::move(*err));
        any_timed = any_timed || (lane.active && lane.timed);
    }
    auto finishLane = [&](size_t i) {
        out[idx[i]].emplace(lanes[i].finish());
    };

    // --- The two tick drivers ---------------------------------------
    // Blocks with armed solver faults or wall-clock budgets run the
    // scalar lane driver, which interleaves injection and deadline
    // checks with each shared-kernel step. Every other block takes the
    // fast path below: the fused SoA tick advances every live slot one
    // iteration of eqs. (1)-(13) in SIMD lanes, and a scalar post-pass
    // hands ended attempts back to the same lane records. Both execute
    // the same value sequence per lane, so either way the batch is
    // bit-identical to per-cell trySolve.
    if (faults.any() || any_timed) {
        runMvaLanes(lanes.data(), count, finishLane);
        return;
    }

    // The SoA runs opts_.blockSize lanes wide; the rest of the work
    // item queues behind it and refills slots as lanes retire, so the
    // SIMD tick stays near-full even when lane iteration counts differ
    // by an order of magnitude. Refill order is the (deterministic)
    // work-item order, and a lane's arithmetic is independent of when
    // its slot opens, so this changes scheduling only, never per-lane
    // values.
    HotSoA hot;
    bool tracing = false;
    std::vector<size_t> pending;
    for (size_t i = 0; i < count; ++i) {
        if (!lanes[i].active)
            continue;
        if (hot.n < opts_.blockSize)
            hot.push(lanes[i], i);
        else
            pending.push_back(i);
        tracing = tracing || lanes[i].recordIters ||
            lanes[i].opts.recordTrace;
    }
    size_t next = 0;

    while (hot.n > 0) {
        hot.rotateHistory();
        fusedTick(hot.n, hot.numProc.data(), hot.tau.data(),
                  hot.pLocal.data(), hot.pBc.data(), hot.pRr.data(),
                  hot.tRead.data(), hot.memFactor.data(),
                  hot.tWrite.data(), hot.tSupply.data(),
                  hot.dMem.data(), hot.invModules.data(), hot.p.data(),
                  hot.pPrime.data(), hot.log2PPrime.data(),
                  hot.tInt.data(), hot.nMinus1.data(), hot.gt1.data(),
                  hot.damp.data(), hot.tol.data(), hot.capD.data(),
                  hot.sPrev.data(), hot.iterD.data(), hot.prevWb.data(),
                  hot.prevWm.data(), hot.prevRt.data(), hot.wb.data(),
                  hot.wm.data(), hot.rt.data(), hot.delta.data(),
                  hot.done.data());

        // Most ticks retire nothing: one cheap scan of the done flags
        // and the next tick starts. (When a lane records
        // per-iteration traces the post-pass must run every tick to
        // buffer the deltas in order.)
        if (!tracing) {
            bool any = false;
            for (size_t s = 0; s < hot.n; ++s)
                any = any || hot.done[s] != 0.0;
            if (!any)
                continue;
        }

        // Post-pass: bookkeeping and retirement per slot. A retired
        // slot is refilled by swap-compaction and the moved lane
        // (already ticked, not yet post-processed) is handled at the
        // same index, so every live lane gets exactly one pass per
        // tick.
        size_t s = 0;
        while (s < hot.n) {
            MvaLane &lane = lanes[hot.lane[s]];
            const int it = static_cast<int>(hot.iterD[s]);

            if (!std::isfinite(hot.rt[s]) || !std::isfinite(hot.wb[s]) ||
                !std::isfinite(hot.wm[s])) {
                // MvaLane::step aborts the attempt before committing:
                // the iterate keeps the last finite state, the
                // measures and residual stay those of iteration it-1
                // (zeros when the first iteration aborts -
                // restartAttempt left them there).
                lane.iterations = it;
                lane.nonFinite = true;
                lane.wBus = hot.prevWb[s];
                lane.wMem = hot.prevWm[s];
                lane.rTotal = hot.prevRt[s];
                if (it >= 2) {
                    lane.last = mvaStep(lane.consts, hot.pprevWb[s],
                                        hot.pprevWm[s], hot.pprevRt[s]);
                    lane.residual =
                        std::fabs(hot.prevRt[s] - hot.pprevRt[s]);
                }
            } else {
                const double delta = hot.delta[s];
                if (lane.opts.recordTrace)
                    lane.convTrace.push_back(delta);
                if (lane.recordIters)
                    lane.replay.back().push_back(delta);

                if (hot.done[s] == 0.0) {
                    ++s;
                    continue;
                }
                lane.iterations = it;
                lane.residual = delta;
                lane.converged = hot.done[s] == 2.0;
                lane.wBus = hot.wb[s];
                lane.wMem = hot.wm[s];
                lane.rTotal = hot.rt[s];
                // Rebuild this iteration's measures from the pre-tick
                // state via the shared scalar step - same inputs, same
                // kernel, same bits as the fused computation that just
                // ran.
                lane.last = mvaStep(lane.consts, hot.prevWb[s],
                                    hot.prevWm[s], hot.prevRt[s]);
            }
            if (lane.endAttempt()) {
                finishLane(hot.lane[s]);
                hot.removeSlot(s);
            } else {
                hot.restartSlot(s, lane);
                ++s;
            }
        }

        // Top up freed slots from the pending queue. Deferred to after
        // the post-pass so a fresh lane, which has not ticked yet, is
        // never post-processed (no zero delta recorded, no verdict
        // read); it takes its first step on the next tick.
        while (hot.n < opts_.blockSize && next < pending.size()) {
            const size_t i = pending[next++];
            hot.push(lanes[i], i);
        }
    }
}

std::vector<Expected<MvaResult>>
BatchMvaSolver::solveBatch(const std::vector<MvaJob> &jobs) const
{
    metricAdd("mva.batch.calls");
    ScopedMetricTimer batch_timer("mva.batch.solve_us");

    std::vector<Expected<MvaResult>> out;
    if (jobs.empty())
        return out;
    // Each slot is filled exactly once - by admission, by the lane's
    // finish, or by the catch below - and unwrapped after the barrier.
    std::vector<std::optional<Expected<MvaResult>>> slots(jobs.size());

    // Cost-sorted lane schedule: iteration count grows with the
    // processor count n, so blocks formed from batch order mix lanes
    // that converge in a handful of ticks with lanes that need
    // hundreds - the light lanes retire early and the heavy remainder
    // runs the SIMD tick nearly empty. Grouping lanes by descending n
    // keeps block occupancy high for the whole solve. Legal because
    // lanes are independent and each result scatters back to its
    // original slot; deterministic because the order is a stable sort
    // on batch contents alone, so the block partition remains a pure
    // function of the batch, never of the pool configuration.
    std::vector<size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return jobs[a].n > jobs[b].n; });

    // One work item spans several SoA widths of lanes: solveBlock
    // runs blockSize lanes in lockstep and refills retired slots
    // from the rest of its span, so lanes that converge in a handful
    // of iterations don't leave SIMD lanes idle while a slow
    // neighbor finishes. The chunk size - like the order above - is
    // a pure function of the batch, never the pool configuration.
    const size_t bs = opts_.blockSize * kBlocksPerItem;
    const size_t blocks = (jobs.size() + bs - 1) / bs;
    parallelFor(blocks, [&](size_t b) {
        const size_t begin = b * bs;
        const size_t lanes = std::min(bs, jobs.size() - begin);
        try {
            solveBlock(jobs.data(), order.data() + begin, slots.data(),
                       lanes);
        } catch (const std::exception &e) {
            for (size_t k = begin; k < begin + lanes; ++k) {
                slots[order[k]] = makeError(
                    SolveErrorCode::Internal,
                    "BatchMvaSolver::solveBatch",
                    "unexpected exception in lane block %zu: %s", b,
                    e.what());
            }
        }
    });
    out.reserve(jobs.size());
    for (size_t i = 0; i < slots.size(); ++i) {
        SNOOP_ASSERT(slots[i].has_value(),
                     "solveBatch: lane %zu was never solved", i);
        out.push_back(std::move(*slots[i]));
    }
    return out;
}

} // namespace snoop
