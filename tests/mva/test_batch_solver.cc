/**
 * Tests for the SoA batch engine (BatchMvaSolver): every lane must be
 * bit-identical to the scalar MvaSolver::trySolve of the same cell -
 * the same measures, diagnostics, attempt record, and per-iteration
 * trace deltas, at any SNOOP_JOBS setting - and a faulted lane (non-finite
 * inputs, injected solver faults, invalid arguments) must fail alone,
 * with the same structured error the scalar engine produces, without
 * perturbing its neighbors. Since both engines share the lane
 * bookkeeping of mva/lane.cc, both are also checked against an
 * independent reference loop over mvaStep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "iteration_deltas.hh"
#include "mva/batch_solver.hh"
#include "mva/kernel.hh"
#include "mva/solver.hh"
#include "observe/trace.hh"
#include "util/fault.hh"
#include "util/parallel.hh"

namespace snoop {
namespace {

DerivedInputs
appendixAInputs(SharingLevel level, const std::string &mods)
{
    return DerivedInputs::compute(presets::appendixA(level),
                                  ProtocolConfig::fromModString(mods));
}

/** The Table 4-1-shaped grid both engines are compared across. */
std::vector<MvaJob>
tableGridJobs(const MvaOptions &opts)
{
    std::vector<MvaJob> jobs;
    for (auto level : kSharingLevels) {
        for (const char *mods : {"", "1", "13", "123"}) {
            for (unsigned n :
                 {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 1000u}) {
                MvaJob job;
                job.inputs = appendixAInputs(level, mods);
                job.n = n;
                job.opts = opts;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

/** Scalar reference results, one trySolve per job, same options. */
std::vector<Expected<MvaResult>>
scalarReference(const std::vector<MvaJob> &jobs)
{
    std::vector<Expected<MvaResult>> out;
    out.reserve(jobs.size());
    for (const MvaJob &job : jobs) {
        MvaSolver solver(job.opts);
        // Reference values compared field-for-field below, converged
        // flag included.
        out.push_back(solver.trySolve(job.inputs, job.n, job.seed));
    }
    return out;
}

/** Bit-identity: every field, == on doubles, no tolerance. */
void
expectBitIdentical(const MvaResult &a, const MvaResult &b)
{
    EXPECT_EQ(a.numProcessors, b.numProcessors);
    EXPECT_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.processingPower, b.processingPower);
    EXPECT_EQ(a.responseTime, b.responseTime);
    EXPECT_EQ(a.rLocal, b.rLocal);
    EXPECT_EQ(a.rBroadcast, b.rBroadcast);
    EXPECT_EQ(a.rRemoteRead, b.rRemoteRead);
    EXPECT_EQ(a.wBus, b.wBus);
    EXPECT_EQ(a.qBus, b.qBus);
    EXPECT_EQ(a.busUtil, b.busUtil);
    EXPECT_EQ(a.pBusyBus, b.pBusyBus);
    EXPECT_EQ(a.tBus, b.tBus);
    EXPECT_EQ(a.tResBus, b.tResBus);
    EXPECT_EQ(a.wMem, b.wMem);
    EXPECT_EQ(a.memUtil, b.memUtil);
    EXPECT_EQ(a.pBusyMem, b.pBusyMem);
    EXPECT_EQ(a.nInterference, b.nInterference);
    EXPECT_EQ(a.tInterference, b.tInterference);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.residual, b.residual);
    EXPECT_EQ(a.nonFinite, b.nonFinite);
    EXPECT_EQ(a.budgetExhausted, b.budgetExhausted);
    EXPECT_EQ(a.warmStarted, b.warmStarted);
    ASSERT_EQ(a.attempts.size(), b.attempts.size());
    for (size_t k = 0; k < a.attempts.size(); ++k) {
        EXPECT_EQ(a.attempts[k].damping, b.attempts[k].damping);
        EXPECT_EQ(a.attempts[k].iterations, b.attempts[k].iterations);
        EXPECT_EQ(a.attempts[k].residual, b.attempts[k].residual);
        EXPECT_EQ(a.attempts[k].converged, b.attempts[k].converged);
    }
}

/** Compare a whole batch against its scalar reference. */
void
expectBatchMatchesScalar(const std::vector<Expected<MvaResult>> &batch,
                         const std::vector<Expected<MvaResult>> &scalar)
{
    ASSERT_EQ(batch.size(), scalar.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE("lane " + std::to_string(i));
        ASSERT_EQ(batch[i].ok(), scalar[i].ok());
        if (batch[i].ok()) {
            expectBitIdentical(batch[i].value(), scalar[i].value());
        } else {
            EXPECT_EQ(batch[i].error().code, scalar[i].error().code);
            EXPECT_EQ(batch[i].error().message,
                      scalar[i].error().message);
        }
    }
}

/**
 * Independent oracle: Section 3.2's successive substitution written
 * directly over the shared mvaStep - cold start, the configured
 * damping, no budgets - so the engines' lane bookkeeping is checked
 * against code that shares none of it. The stop test is spelled out
 * here too rather than calling the kernel's mvaStepSize/mvaConverged:
 * the solve stops once the largest relative step s over (wBus, wMem,
 * R) is below tol. Each iteration's |R_k - R_{k-1}| is appended to
 * @p deltas.
 */
MvaResult
referenceSolve(const DerivedInputs &d, unsigned n, const MvaOptions &opts,
               std::vector<double> &deltas)
{
    const MvaStepConstants c = mvaStepConstants(d, n);
    const double damping = opts.damping;
    MvaResult r;
    r.numProcessors = n;
    double w_bus = 0.0, w_mem = 0.0, r_total = d.tau + c.tSupply;
    for (int it = 1; it <= opts.maxIterations && !r.converged; ++it) {
        const MvaStepValues o = mvaStep(c, w_bus, w_mem, r_total);
        const double delta = std::fabs(o.rNew - r_total);
        const double w_bus_next =
            damping * o.wBusNew + (1.0 - damping) * w_bus;
        const double w_mem_next =
            damping * o.wMemNew + (1.0 - damping) * w_mem;
        double s = 0.0;
        for (auto [next, prev] : {std::pair{w_bus_next, w_bus},
                                  std::pair{w_mem_next, w_mem},
                                  std::pair{o.rNew, r_total}}) {
            s = std::max(s, std::fabs(next - prev) /
                                std::max(1.0, std::fabs(next)));
        }
        w_bus = w_bus_next;
        w_mem = w_mem_next;
        r_total = o.rNew;
        r.iterations = it;
        r.residual = delta;
        deltas.push_back(delta);
        r.rLocal = o.rLocal;
        r.rBroadcast = o.rBc;
        r.rRemoteRead = o.rRr;
        r.qBus = o.qBus;
        r.busUtil = std::min(o.uBus, 1.0);
        r.pBusyBus = o.pBusyBus;
        r.tBus = o.tBus;
        r.tResBus = o.tResBus;
        r.memUtil = std::min(o.uMem, 1.0);
        r.pBusyMem = o.pBusyMem;
        r.nInterference = o.nInt;
        r.tInterference = c.appendixB.tInt;
        r.converged = s < opts.tolerance;
    }
    r.wBus = w_bus;
    r.wMem = w_mem;
    r.responseTime = r_total;
    r.speedup = c.numProc * (d.tau + c.tSupply) / r_total;
    r.processingPower = c.numProc * d.tau / r_total;
    // The one attempt, at the configured damping.
    r.attempts.push_back(
        SolveAttempt{damping, r.iterations, r.residual, r.converged});
    return r;
}

/** Restores the pool size and fault registry around every test. */
class BatchSolver : public testing::Test
{
  protected:
    void SetUp() override { clearFaultSpecs(); }
    void TearDown() override
    {
        clearFaultSpecs();
        setParallelJobs(0);
    }
};

TEST_F(BatchSolver, BitIdenticalToScalarAcrossTheGridAtAnyJobCount)
{
    std::vector<MvaJob> jobs = tableGridJobs(MvaOptions{});
    auto scalar = scalarReference(jobs);
    BatchMvaSolver batch;
    for (unsigned n_jobs : {1u, 2u, 8u}) {
        SCOPED_TRACE("SNOOP_JOBS=" + std::to_string(n_jobs));
        setParallelJobs(n_jobs);
        expectBatchMatchesScalar(batch.solveBatch(jobs), scalar);
    }

    // A generous time budget sends every block through the scalar
    // lane driver instead of the fused tick; the numbers must not
    // move - neither against the unbudgeted batch nor against
    // per-cell trySolve under the same budget.
    MvaOptions timed;
    timed.timeBudget = 60.0;
    std::vector<MvaJob> timed_jobs = tableGridJobs(timed);
    auto timed_scalar = scalarReference(timed_jobs);
    expectBatchMatchesScalar(timed_scalar, scalar);
    for (unsigned n_jobs : {1u, 2u, 8u}) {
        SCOPED_TRACE("timeBudget=60 SNOOP_JOBS=" + std::to_string(n_jobs));
        setParallelJobs(n_jobs);
        auto solved = batch.solveBatch(timed_jobs);
        expectBatchMatchesScalar(solved, timed_scalar);
        expectBatchMatchesScalar(solved, scalar);
    }
}

TEST_F(BatchSolver, BothEnginesMatchTheIndependentReferenceLoop)
{
    MvaOptions opts;
    opts.onNonConvergence = NonConvergencePolicy::Accept;
    std::vector<MvaJob> jobs = tableGridJobs(opts);
    // Every solve replays its iteration deltas into the trace under a
    // task of its own: batch lane i under traceKey i + 1, scalar cell
    // i under task scalar_task + i.
    const uint64_t scalar_task = jobs.size() + 1;
    for (size_t i = 0; i < jobs.size(); ++i)
        jobs[i].traceKey = i + 1;
    observeReset();
    setTrace(TraceLevel::Iteration);
    std::vector<Expected<MvaResult>> scalar;
    for (size_t i = 0; i < jobs.size(); ++i) {
        TraceTaskScope scope(scalar_task + i);
        scalar.push_back(
            MvaSolver(opts).trySolve(jobs[i].inputs, jobs[i].n));
    }
    auto batch = BatchMvaSolver().solveBatch(jobs);
    const std::vector<TraceEvent> events = snapshotTraceEvents();
    observeReset();
    for (size_t i = 0; i < jobs.size(); ++i) {
        std::vector<double> ref_deltas;
        MvaResult ref =
            referenceSolve(jobs[i].inputs, jobs[i].n, opts, ref_deltas);
        SCOPED_TRACE("cell " + std::to_string(i));
        EXPECT_TRUE(ref.converged);
        ASSERT_TRUE(scalar[i].ok());
        ASSERT_TRUE(batch[i].ok());
        EXPECT_EQ(scalar[i].value().attempts.size(), 1u);
        EXPECT_EQ(batch[i].value().attempts.size(), 1u);
        expectBitIdentical(scalar[i].value(), ref);
        expectBitIdentical(batch[i].value(), ref);
        EXPECT_EQ(iterationDeltas(events, scalar_task + i), ref_deltas);
        EXPECT_EQ(iterationDeltas(events, i + 1), ref_deltas);
    }
}

/**
 * Inputs that put eq. (13) on a boundary branch: p' = pB + pA * (a
 * factor proportional to csupFrac), so pB = 1 gives p' >= 1, and
 * pB = 0 with csupFrac = 0 gives p' = 0.
 */
DerivedInputs
pPrimeBoundaryInputs(bool p_prime_one)
{
    DerivedInputs d = appendixAInputs(SharingLevel::TwentyPercent, "");
    d.pA = 0.3;
    d.pB = p_prime_one ? 1.0 : 0.0;
    if (!p_prime_one)
        d.csupFrac = 0.0;
    return d;
}

TEST_F(BatchSolver, PPrimeBoundaryBranchesMatchScalar)
{
    for (bool p_prime_one : {true, false}) {
        SCOPED_TRACE(p_prime_one ? "p' >= 1" : "p' = 0");
        const DerivedInputs d = pPrimeBoundaryInputs(p_prime_one);
        const double p = d.pA + d.pB;

        // The shared step takes the branch the inputs select.
        const MvaStepConstants c = mvaStepConstants(d, 8);
        if (p_prime_one)
            ASSERT_GE(c.appendixB.pPrime, 1.0);
        else
            ASSERT_EQ(c.appendixB.pPrime, 0.0);
        const MvaStepValues o = mvaStep(c, 1.0, 1.0, d.tau + c.tSupply);
        ASSERT_GT(o.qBus, 0.0);
        EXPECT_EQ(o.nInt, p_prime_one ? p * o.qBus : p);

        // Both engines commit it, and the fused tick's selects land
        // on the same branch as the scalar step, bit for bit.
        std::vector<MvaJob> jobs;
        for (unsigned n : {2u, 4u, 8u, 16u, 64u}) {
            MvaJob job;
            job.inputs = d;
            job.n = n;
            job.opts.onNonConvergence = NonConvergencePolicy::Accept;
            jobs.push_back(std::move(job));
        }
        auto scalar = scalarReference(jobs);
        auto solved = BatchMvaSolver().solveBatch(jobs);
        expectBatchMatchesScalar(solved, scalar);
        for (size_t i = 0; i < jobs.size(); ++i) {
            SCOPED_TRACE("N=" + std::to_string(jobs[i].n));
            ASSERT_TRUE(solved[i].ok());
            const MvaResult &r = solved[i].value();
            ASSERT_GT(r.qBus, 0.0);
            EXPECT_EQ(r.nInterference, p_prime_one ? p * r.qBus : p);
        }
    }
}

TEST_F(BatchSolver, BlockSizeNeverChangesTheNumbers)
{
    std::vector<MvaJob> jobs = tableGridJobs(MvaOptions{});
    auto scalar = scalarReference(jobs);
    for (size_t block : {1u, 3u, 16u, 1000u}) {
        SCOPED_TRACE("blockSize=" + std::to_string(block));
        BatchMvaSolver batch(BatchOptions{block});
        expectBatchMatchesScalar(batch.solveBatch(jobs), scalar);
    }
}

TEST_F(BatchSolver, CappedLanesMixWithCleanLanes)
{
    // Lanes that end unconverged on an iteration cap interleaved with
    // lanes that converge: the per-lane state must never bleed across
    // lanes of one SoA block.
    MvaOptions capped;
    capped.maxIterations = 2;
    capped.onNonConvergence = NonConvergencePolicy::Accept;
    std::vector<MvaJob> jobs;
    for (unsigned i = 0; i < 12; ++i) {
        MvaJob job;
        job.inputs = appendixAInputs(SharingLevel::FivePercent,
                                     i % 3 ? "13" : "");
        job.n = 10 + i;
        if (i % 2)
            job.opts = capped;
        jobs.push_back(std::move(job));
    }
    auto scalar = scalarReference(jobs);
    for (size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(scalar[i].ok());
        // Each lane makes one attempt; the capped ones end unconverged.
        EXPECT_EQ(scalar[i].value().attempts.size(), 1u);
        EXPECT_EQ(scalar[i].value().converged, i % 2 == 0);
        EXPECT_EQ(scalar[i].value().iterations == 2, i % 2 == 1);
    }
    BatchMvaSolver batch(BatchOptions{4});
    expectBatchMatchesScalar(batch.solveBatch(jobs), scalar);
}

TEST_F(BatchSolver, WarmAndColdLanesShareABatch)
{
    auto inputs = appendixAInputs(SharingLevel::FivePercent, "13");
    MvaSolver solver;
    auto anchor = solver.trySolve(inputs, 10);
    ASSERT_TRUE(anchor.ok());

    std::vector<MvaJob> jobs(2);
    jobs[0].inputs = inputs;
    jobs[0].n = 12; // cold
    jobs[1].inputs = inputs;
    jobs[1].n = 12; // warm, seeded from the N=10 fixed point
    jobs[1].seed = MvaSeed::fromResult(anchor.value());

    auto scalar = scalarReference(jobs);
    BatchMvaSolver batch;
    auto solved = batch.solveBatch(jobs);
    expectBatchMatchesScalar(solved, scalar);
    ASSERT_TRUE(solved[0].ok());
    ASSERT_TRUE(solved[1].ok());
    EXPECT_FALSE(solved[0].value().warmStarted);
    EXPECT_TRUE(solved[1].value().warmStarted);
    EXPECT_LT(solved[1].value().iterations,
              solved[0].value().iterations);
}

TEST_F(BatchSolver, NonFiniteLaneFailsAloneWithTheScalarError)
{
    std::vector<MvaJob> jobs(3);
    for (MvaJob &job : jobs) {
        job.inputs = appendixAInputs(SharingLevel::FivePercent, "");
        job.n = 10;
        job.opts.onNonConvergence = NonConvergencePolicy::Accept;
    }
    jobs[1].inputs.tau = std::nan(""); // poison the middle lane
    auto scalar = scalarReference(jobs);
    ASSERT_FALSE(scalar[1].ok());
    EXPECT_EQ(scalar[1].error().code, SolveErrorCode::NonFiniteIterate);
    BatchMvaSolver batch;
    auto solved = batch.solveBatch(jobs);
    expectBatchMatchesScalar(solved, scalar);
    EXPECT_TRUE(solved[0].ok());
    EXPECT_TRUE(solved[2].ok());
}

TEST_F(BatchSolver, InvalidLanesFailAloneWithTheScalarErrors)
{
    std::vector<MvaJob> jobs(3);
    for (MvaJob &job : jobs) {
        job.inputs = appendixAInputs(SharingLevel::FivePercent, "");
        job.n = 8;
    }
    jobs[0].n = 0;                       // no processors
    jobs[2].seed = {std::nan(""), 0, 0}; // non-finite seed
    BatchMvaSolver batch;
    auto solved = batch.solveBatch(jobs);
    ASSERT_FALSE(solved[0].ok());
    EXPECT_EQ(solved[0].error().code, SolveErrorCode::InvalidArgument);
    ASSERT_TRUE(solved[1].ok());
    EXPECT_TRUE(solved[1].value().converged);
    ASSERT_FALSE(solved[2].ok());
    EXPECT_EQ(solved[2].error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(solved[2].error().message.find("seed"),
              std::string::npos);
}

TEST_F(BatchSolver, InjectedSolverFaultsMatchScalarLaneForLane)
{
    for (const char *spec :
         {"mva.nan", "mva.nonconverge"}) {
        SCOPED_TRACE(spec);
        ASSERT_TRUE(setFaultSpecs(spec).ok());
        MvaOptions opts;
        opts.onNonConvergence = NonConvergencePolicy::Accept;
        std::vector<MvaJob> jobs(4);
        for (size_t i = 0; i < jobs.size(); ++i) {
            jobs[i].inputs = appendixAInputs(
                SharingLevel::FivePercent, i % 2 ? "13" : "");
            jobs[i].n = 8 + static_cast<unsigned>(i);
            jobs[i].opts = opts;
        }
        auto scalar = scalarReference(jobs);
        BatchMvaSolver batch;
        expectBatchMatchesScalar(batch.solveBatch(jobs), scalar);
        clearFaultSpecs();
    }
}

TEST_F(BatchSolver, EmptyBatchIsANoOp)
{
    BatchMvaSolver batch;
    EXPECT_TRUE(batch.solveBatch({}).empty());
}

} // namespace
} // namespace snoop
