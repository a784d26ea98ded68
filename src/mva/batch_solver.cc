#include "mva/batch_solver.hh"

#include <algorithm>
#include <array>
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
 * contiguous column per step constant and per iterate variable,
 * indexed by *slot*. Slots are kept dense by swap-compaction as lanes
 * retire, so fusedTick below is a branch-free loop over [0, n) the
 * compiler can turn into SIMD lanes - no masked-off dead work, no
 * gather through an index array.
 *
 * Only the per-tick arithmetic lives here. Everything the epilogue
 * needs (the attempt record, measures, traces) stays in the MvaLane
 * record of the original lane id (`lane[slot]`), and is synced once
 * when the lane ends rather than every tick. To rebuild the
 * last-committed measures at retirement without storing them per
 * tick, the tick keeps a two-deep history ring of the iterate (prev*
 * = one tick back, pprev* = two ticks back): the retirement path
 * replays the shared scalar mvaStep on the saved state, which by the
 * bit-identity contract reproduces exactly what the fused loop
 * computed.
 */
struct HotSoA
{
    enum Column : size_t {
        // the step constants (MvaStepConstants)
        kNumProc, kTau, kPLocal, kPBc, kPRr, kTRead, kMemFactor,
        kTWrite, kTSupply, kDMem, kInvModules, kP, kPPrime,
        kLog2PPrime, kTInt,
        // the iterate and its two-tick history ring
        kWb, kWm, kRt, kPrevWb, kPrevWm, kPrevRt, kPprevWb, kPprevWm,
        kPprevRt,
        // per-slot control. The iteration counter and cap live as
        // doubles so the fused tick can count and compare them in SIMD
        // lanes (both are integer-valued and far below 2^53, so the
        // comparisons are exact). kDone is the tick's verdict: 0 the
        // lane goes on, 1 it ended unconverged (cap or non-finite
        // iterate), 2 it converged.
        kDamp, kTol, kDelta, kIter, kCap, kDone,
        kColumns
    };
    std::array<std::vector<double>, kColumns> col;
    std::vector<size_t> lane; ///< slot -> lane id in the block
    size_t n = 0;             ///< live slot count (dense prefix)

    double *operator[](Column c) { return col[c].data(); }

    void push(const MvaLane &ln, size_t i)
    {
        const MvaStepConstants &c = ln.consts;
        // The history ring, delta, count and verdict start at 0.
        std::array<double, kColumns> v{};
        v[kNumProc] = c.numProc;
        v[kTau] = c.tau;
        v[kPLocal] = c.pLocal;
        v[kPBc] = c.pBc;
        v[kPRr] = c.pRr;
        v[kTRead] = c.tRead;
        v[kMemFactor] = c.memFactor;
        v[kTWrite] = c.tWrite;
        v[kTSupply] = c.tSupply;
        v[kDMem] = c.dMem;
        v[kInvModules] = c.invModules;
        v[kP] = c.appendixB.p;
        v[kPPrime] = c.appendixB.pPrime;
        v[kLog2PPrime] = c.appendixB.log2PPrime;
        v[kTInt] = c.appendixB.tInt;
        v[kWb] = ln.wBus;
        v[kWm] = ln.wMem;
        v[kRt] = ln.rTotal;
        v[kDamp] = ln.opts.damping;
        v[kTol] = ln.opts.tolerance;
        v[kCap] = static_cast<double>(ln.cap);
        for (size_t k = 0; k < kColumns; ++k)
            col[k].push_back(v[k]);
        lane.push_back(i);
        ++n;
    }

    /** Advance the history ring before a tick: the buffers swap so
     * pprev* takes over prev*'s contents, and the tick itself stores
     * each slot's pre-tick iterate into prev* as it reads it. */
    void rotateHistory()
    {
        std::swap(col[kPprevWb], col[kPrevWb]);
        std::swap(col[kPprevWm], col[kPrevWm]);
        std::swap(col[kPprevRt], col[kPrevRt]);
    }

    /** Retire slot @p s: move the last live slot into it (every
     * column, history ring included - the moved lane's saved states
     * travel with it) and shrink the dense prefix, so push() appends
     * at slot n again - a refilled lane must land inside the dense
     * prefix the tick iterates, not past it. */
    void removeSlot(size_t s)
    {
        const size_t b = n - 1;
        for (std::vector<double> &c : col) {
            c[s] = c[b];
            c.pop_back();
        }
        lane[s] = lane[b];
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
 * shared mvaStep plus the damped update and the stop test. mvaStep
 * and its helpers are branch-free (mva/kernel.hh), so the whole body
 * if-converts and vectorizes, and because the loop runs the scalar
 * lane's own functions on the same values in the same order, batch
 * results are bit-identical to per-cell trySolve (MvaLane::step).
 *
 * Writes back wb/wm/rt, the R delta, the pre-tick iterate (into
 * prev*, completing the caller's history-ring rotation), the advanced
 * iteration count, and a per-slot `done` verdict that goes nonzero
 * when the lane converged (2, by the shared mvaConverged), hit its
 * iteration cap or produced a non-finite iterate (1). The verdict
 * lets the caller skip its scalar post-pass on the (vast majority of)
 * ticks where no lane retires; the post-pass reads convergence from
 * it and re-derives everything else from the stored values.
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
          const double *__restrict damp, const double *__restrict tol,
          const double *__restrict capD, double *__restrict iterD,
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

        MvaStepConstants c;
        c.numProc = numProc[s];
        c.tau = tau[s];
        c.pLocal = pLocal[s];
        c.pBc = pBc[s];
        c.pRr = pRr[s];
        c.tRead = tRead[s];
        c.memFactor = memFactor[s];
        c.tWrite = tWrite[s];
        c.tSupply = tSupply[s];
        c.dMem = dMem[s];
        c.invModules = invModules[s];
        c.appendixB = {p[s], pPrime[s], lgPP[s], tInt[s]};
        const MvaStepValues o = mvaStep(c, wbv, wmv, rtv);

        // damped update, R delta and step size (same expressions as
        // MvaLane::step)
        const double d = damp[s];
        const double wbNext = d * o.wBusNew + (1.0 - d) * wbv;
        const double wmNext = d * o.wMemNew + (1.0 - d) * wmv;
        const double st =
            mvaStepSize(wbNext, wbv, wmNext, wmv, o.rNew, rtv);
        wb[s] = wbNext;
        wm[s] = wmNext;
        rt[s] = o.rNew;
        delta[s] = std::fabs(o.rNew - rtv);

        // The verdict, in MvaLane::step's order: a non-finite iterate
        // ends the lane unconverged, else convergence, else the cap.
        // |x| <= DBL_MAX is isfinite in select form - false for both
        // infinities and NaN - and the verdict is chained selects
        // rather than short-circuit bools so the whole body stays
        // branch-free.
        const double itv = iterD[s] + 1.0;
        iterD[s] = itv;
        double dn = (itv >= capD[s]) ? 1.0 : 0.0;
        dn = mvaConverged(st, tol[s]) ? 2.0 : dn;
        dn = (std::fabs(o.rNew) <= DBL_MAX) ? dn : 1.0;
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
    // hands ended lanes back to the same lane records. Both execute
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

    using H = HotSoA;
    while (hot.n > 0) {
        hot.rotateHistory();
        fusedTick(hot.n, hot[H::kNumProc], hot[H::kTau], hot[H::kPLocal],
                  hot[H::kPBc], hot[H::kPRr], hot[H::kTRead],
                  hot[H::kMemFactor], hot[H::kTWrite], hot[H::kTSupply],
                  hot[H::kDMem], hot[H::kInvModules], hot[H::kP],
                  hot[H::kPPrime], hot[H::kLog2PPrime], hot[H::kTInt],
                  hot[H::kDamp], hot[H::kTol], hot[H::kCap],
                  hot[H::kIter], hot[H::kPrevWb], hot[H::kPrevWm],
                  hot[H::kPrevRt], hot[H::kWb], hot[H::kWm], hot[H::kRt],
                  hot[H::kDelta], hot[H::kDone]);
        const double *done = hot[H::kDone];

        // Most ticks retire nothing: one cheap scan of the done flags
        // and the next tick starts. (When a lane records
        // per-iteration traces the post-pass must run every tick to
        // buffer the deltas in order.)
        if (!tracing) {
            bool any = false;
            for (size_t s = 0; s < hot.n; ++s)
                any = any || done[s] != 0.0;
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
            const int it = static_cast<int>(hot[H::kIter][s]);
            const double *prev_wb = hot[H::kPrevWb];
            const double *prev_wm = hot[H::kPrevWm];
            const double *prev_rt = hot[H::kPrevRt];

            if (!std::isfinite(hot[H::kRt][s]) ||
                !std::isfinite(hot[H::kWb][s]) ||
                !std::isfinite(hot[H::kWm][s])) {
                // MvaLane::step ends the solve before committing: the
                // iterate keeps the last finite state, the measures
                // and residual stay those of iteration it-1 (zeros
                // when the first iteration aborts - admit left them
                // there).
                lane.iterations = it;
                lane.nonFinite = true;
                lane.wBus = prev_wb[s];
                lane.wMem = prev_wm[s];
                lane.rTotal = prev_rt[s];
                if (it >= 2) {
                    lane.last = mvaStep(lane.consts, hot[H::kPprevWb][s],
                                        hot[H::kPprevWm][s],
                                        hot[H::kPprevRt][s]);
                    lane.residual =
                        std::fabs(prev_rt[s] - hot[H::kPprevRt][s]);
                }
            } else {
                const double delta = hot[H::kDelta][s];
                if (lane.opts.recordTrace)
                    lane.convTrace.push_back(delta);
                if (lane.recordIters)
                    lane.replay.push_back(delta);

                if (done[s] == 0.0) {
                    ++s;
                    continue;
                }
                lane.iterations = it;
                lane.residual = delta;
                lane.converged = done[s] == 2.0;
                lane.wBus = hot[H::kWb][s];
                lane.wMem = hot[H::kWm][s];
                lane.rTotal = hot[H::kRt][s];
                // Rebuild this iteration's measures from the pre-tick
                // state via the shared scalar step - same inputs, same
                // kernel, same bits as the fused computation that just
                // ran.
                lane.last =
                    mvaStep(lane.consts, prev_wb[s], prev_wm[s], prev_rt[s]);
            }
            finishLane(hot.lane[s]);
            hot.removeSlot(s);
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
