/**
 * Property tests for the MVA model: structural invariants that must
 * hold across the whole (sharing level, protocol, N) design space.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <string>
#include <vector>

#include "mva/batch_solver.hh"
#include "mva/hierarchical.hh"
#include "mva/kernel.hh"
#include "mva/multiclass.hh"
#include "mva/solver.hh"
#include "random/rng.hh"
#include "util/logging.hh"

namespace snoop {
namespace {

class MvaSpace
    : public testing::TestWithParam<std::tuple<SharingLevel, unsigned>>
{
  protected:
    DerivedInputs
    inputs() const
    {
        auto [level, idx] = GetParam();
        return DerivedInputs::compute(presets::appendixA(level),
                                      ProtocolConfig::fromIndex(idx));
    }
};

TEST_P(MvaSpace, SpeedupIsBoundedByN)
{
    MvaSolver solver;
    auto d = inputs();
    for (unsigned n : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 55u, 144u}) {
        auto r = solver.solve(d, n);
        EXPECT_TRUE(r.converged);
        EXPECT_GT(r.speedup, 0.0);
        EXPECT_LE(r.speedup, static_cast<double>(n) + 1e-9);
    }
}

TEST_P(MvaSpace, SpeedupApproximatelyMonotoneInN)
{
    // Speedup grows with N up to the bus knee and may decline very
    // slightly past it (the paper's own Table 4.1(b) shows 7.09 at
    // N=20 vs 7.04 at N=100), so we allow a 2% sag but no more.
    MvaSolver solver;
    auto d = inputs();
    double prev = 0.0;
    for (unsigned n = 1; n <= 64; n *= 2) {
        double s = solver.solve(d, n).speedup;
        EXPECT_GE(s, prev * 0.98) << "N=" << n;
        prev = s;
    }
}

TEST_P(MvaSpace, UtilizationsAreProbabilities)
{
    MvaSolver solver;
    auto d = inputs();
    for (unsigned n : {1u, 4u, 16u, 64u, 256u}) {
        auto r = solver.solve(d, n);
        EXPECT_GE(r.busUtil, 0.0);
        EXPECT_LE(r.busUtil, 1.0 + 1e-9);
        EXPECT_GE(r.memUtil, 0.0);
        EXPECT_LE(r.memUtil, 1.0 + 1e-9);
        EXPECT_GE(r.pBusyBus, 0.0);
        EXPECT_LE(r.pBusyBus, 1.0 + 1e-9);
        EXPECT_GE(r.pBusyMem, 0.0);
        EXPECT_LE(r.pBusyMem, 1.0 + 1e-9);
    }
}

TEST_P(MvaSpace, WaitingTimesNonNegativeAndGrowWithLoad)
{
    MvaSolver solver;
    auto d = inputs();
    double prev_wbus = -1.0;
    for (unsigned n : {1u, 2u, 4u, 8u, 16u, 32u}) {
        auto r = solver.solve(d, n);
        EXPECT_GE(r.wBus, 0.0);
        EXPECT_GE(r.wMem, 0.0);
        EXPECT_GE(r.qBus, 0.0);
        EXPECT_GE(r.wBus, prev_wbus - 1e-6) << "N=" << n;
        prev_wbus = r.wBus;
    }
}

TEST_P(MvaSpace, ResponseTimeDecomposesExactly)
{
    MvaSolver solver;
    auto d = inputs();
    for (unsigned n : {1u, 6u, 20u}) {
        auto r = solver.solve(d, n);
        // eq. (1): R = tau + R_local + R_broadcast + R_RemoteRead +
        // T_supply, evaluated at the fixed point.
        EXPECT_NEAR(r.responseTime,
                    d.tau + r.rLocal + r.rBroadcast + r.rRemoteRead +
                        d.timing.tSupply,
                    1e-6);
    }
}

TEST_P(MvaSpace, SaturationThroughputMatchesBusDemand)
{
    // As N grows the bus saturates and speedup approaches
    // (tau + T_supply) / D where D is the per-request bus demand.
    MvaSolver solver;
    auto d = inputs();
    auto big = solver.solve(d, 4096);
    double demand = d.pBc * (big.wMem + d.timing.tWrite) +
        d.pRr * d.tRead;
    if (demand <= 0.0)
        return; // all-local workloads never saturate
    double limit = (d.tau + d.timing.tSupply) / demand;
    EXPECT_NEAR(big.speedup, limit, limit * 0.02);
    EXPECT_GT(big.busUtil, 0.98);
}

TEST_P(MvaSpace, InterferenceVanishesAtOneProcessor)
{
    MvaSolver solver;
    auto r = solver.solve(inputs(), 1);
    EXPECT_DOUBLE_EQ(r.nInterference, 0.0);
    EXPECT_DOUBLE_EQ(r.rLocal, 0.0);
    EXPECT_DOUBLE_EQ(r.wBus, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllLevelsAllMods, MvaSpace,
    testing::Combine(testing::ValuesIn(kSharingLevels),
                     testing::Range(0u, 16u)));

// ---------------------------------------------------------------------
// Sensitivity properties on individual parameters
// ---------------------------------------------------------------------

TEST(MvaSensitivity, LongerThinkTimeReducesContention)
{
    MvaSolver solver;
    WorkloadParams p = presets::appendixA(SharingLevel::FivePercent);
    auto base = solver.solve(p, ProtocolConfig::writeOnce(), 10);
    p.tau = 10.0;
    auto slow = solver.solve(p, ProtocolConfig::writeOnce(), 10);
    EXPECT_LT(slow.busUtil, base.busUtil);
    EXPECT_LT(slow.wBus, base.wBus);
    EXPECT_GT(slow.speedup, base.speedup);
}

TEST(MvaSensitivity, LowerHitRateIncreasesBusLoad)
{
    MvaSolver solver;
    WorkloadParams p = presets::appendixA(SharingLevel::FivePercent);
    auto base = solver.solve(p, ProtocolConfig::writeOnce(), 10);
    p.hPrivate = 0.80;
    auto missy = solver.solve(p, ProtocolConfig::writeOnce(), 10);
    EXPECT_GT(missy.busUtil, base.busUtil);
    EXPECT_LT(missy.speedup, base.speedup);
}

TEST(MvaSensitivity, HigherReplacementTrafficHurts)
{
    MvaSolver solver;
    WorkloadParams p = presets::appendixA(SharingLevel::FivePercent);
    auto base = solver.solve(p, ProtocolConfig::writeOnce(), 10);
    p.repP = 0.8;
    auto heavy = solver.solve(p, ProtocolConfig::writeOnce(), 10);
    EXPECT_LT(heavy.speedup, base.speedup);
}

TEST(MvaSensitivity, StressWorkloadStillWithinModelDomain)
{
    // Section 4.3 stress parameters must solve cleanly.
    MvaSolver solver;
    auto d = DerivedInputs::compute(presets::stressTest(),
                                    ProtocolConfig::writeOnce());
    for (unsigned n : {1u, 4u, 10u, 50u}) {
        auto r = solver.solve(d, n);
        EXPECT_TRUE(r.converged);
        EXPECT_GT(r.speedup, 0.0);
        EXPECT_LE(r.speedup, static_cast<double>(n));
    }
}

TEST(MvaSensitivity, MemoryInterferenceRespondsToModuleCount)
{
    MvaSolver solver;
    auto p = presets::appendixA(SharingLevel::TwentyPercent);
    BusTiming one_module;
    one_module.numModules = 1;
    auto few = solver.solve(p, ProtocolConfig::writeOnce(), 10, one_module);
    auto many = solver.solve(p, ProtocolConfig::writeOnce(), 10);
    EXPECT_GT(few.memUtil, many.memUtil);
    EXPECT_GE(few.wMem, many.wMem);
}

TEST(MvaSensitivity, DampedSolverAgreesWithUndamped)
{
    // Plain substitution's slowly decaying oscillation needs 601
    // steps at N=100 here, more than the default cap of 500.
    MvaOptions undamped;
    undamped.damping = 1.0;
    undamped.maxIterations = 2000;
    MvaOptions damped;
    damped.damping = 0.5;
    MvaSolver a(undamped);
    MvaSolver b(damped);
    auto d = DerivedInputs::compute(
        presets::appendixA(SharingLevel::TwentyPercent),
        ProtocolConfig::fromModString("1"));
    for (unsigned n : {2u, 10u, 100u}) {
        EXPECT_NEAR(a.solve(d, n).speedup, b.solve(d, n).speedup, 1e-6);
    }
}

/**
 * The fixed point R* of one cell, by 20 000 damped (0.5) steps from
 * the cold start with no stop test of the solver's: the loop only
 * ends early once a step changes nothing, where every later step
 * would repeat it exactly.
 */
double
referenceResponseTime(const DerivedInputs &d, unsigned n)
{
    const MvaStepConstants c = mvaStepConstants(d, n);
    double w_bus = 0.0, w_mem = 0.0, r = d.tau + c.tSupply;
    for (int it = 0; it < 20000; ++it) {
        const MvaStepValues o = mvaStep(c, w_bus, w_mem, r);
        const double w_bus_next = 0.5 * o.wBusNew + 0.5 * w_bus;
        const double w_mem_next = 0.5 * o.wMemNew + 0.5 * w_mem;
        const bool same = w_bus_next == w_bus && w_mem_next == w_mem &&
            o.rNew == r;
        w_bus = w_bus_next;
        w_mem = w_mem_next;
        r = o.rNew;
        if (same)
            break;
    }
    return r;
}

/**
 * Options for the 20 000-step reference of an extension: the solver's
 * own loop with a stop test that only fires on a step of exactly zero
 * (or below DBL_MIN), where every later step would repeat it.
 */
MvaOptions
referenceOptions()
{
    MvaOptions opts;
    opts.maxIterations = 20000;
    opts.tolerance = DBL_MIN;
    opts.onNonConvergence = NonConvergencePolicy::Accept;
    return opts;
}

/** Relative distance |a - b| / |b|. */
double
relErr(double a, double b)
{
    return std::fabs(a - b) / std::fabs(b);
}

/**
 * A workload drawn from the whole probability space: every
 * probability uniform in [0, 1], shared streams up to 40% sw and 20%
 * sro, tau in [0, 20].
 */
WorkloadParams
randomWorkload(Rng &rng)
{
    WorkloadParams w;
    w.tau = rng.uniform(0.0, 20.0);
    w.pSw = rng.uniform(0.0, 0.4);
    w.pSro = rng.uniform(0.0, 0.2);
    w.pPrivate = 1.0 - w.pSw - w.pSro;
    for (double *f : {&w.hPrivate, &w.hSro, &w.hSw, &w.rPrivate,
                      &w.rSw, &w.amodPrivate, &w.amodSw,
                      &w.csupplySro, &w.csupplySw, &w.wbCsupply,
                      &w.repP, &w.repSw}) {
        *f = rng.uniform();
    }
    return w;
}

/** Any of the 16 protocols. */
ProtocolConfig
randomProtocol(Rng &rng)
{
    return ProtocolConfig::fromIndex(
        static_cast<unsigned>(rng.uniformInt(16)));
}

/**
 * @p n processors of one workload as @p k identical classes (k <= n)
 * whose counts sum to n.
 */
std::vector<ProcessorClass>
identicalClasses(const DerivedInputs &d, unsigned n, unsigned k)
{
    std::vector<ProcessorClass> classes;
    for (unsigned j = 0; j < k; ++j)
        classes.push_back({"c", n / k + (j < n % k ? 1u : 0u), d});
    return classes;
}

TEST(MvaFixedPoint, AppendixAGridIsWithinOneNanoOfTheFixedPoint)
{
    // 16 protocols x 3 Appendix A sharing levels x 8 sizes: the
    // default solve stops within 1e-9 of R* (relative) on every cell,
    // in tens of iterations on average.
    MvaSolver solver;
    double worst = 0.0;
    long iterations = 0, cells = 0;
    for (unsigned p = 0; p < kProtocolCount; ++p) {
        for (auto level : kSharingLevels) {
            auto d = DerivedInputs::compute(presets::appendixA(level),
                                            ProtocolConfig::fromIndex(p));
            for (unsigned n : {2u, 4u, 8u, 16u, 32u, 64u, 96u, 128u}) {
                SCOPED_TRACE("protocol " + std::to_string(p) + " " +
                             to_string(level) + " N=" + std::to_string(n));
                auto r = solver.trySolve(d, n);
                ASSERT_TRUE(r.ok());
                const double ref = referenceResponseTime(d, n);
                worst = std::max(
                    worst, std::fabs(r.value().responseTime - ref) / ref);
                iterations += r.value().iterations;
                ++cells;
            }
        }
    }
    EXPECT_EQ(cells, 384);
    EXPECT_LE(worst, 1e-9);
    EXPECT_LE(static_cast<double>(iterations) / cells, 70.0);
}

TEST(MvaFixedPoint, MulticlassMatchesTheFlatSolverOnTheGrid)
{
    // On the same 384 cells, one class of N processors and N split
    // into 2 or 3 identical classes land on MvaSolver's fixed point:
    // the same equations and stop test, so within 1e-9.
    MvaSolver solver;
    double worst = 0.0;
    for (unsigned p = 0; p < kProtocolCount; ++p) {
        for (auto level : kSharingLevels) {
            auto d = DerivedInputs::compute(presets::appendixA(level),
                                            ProtocolConfig::fromIndex(p));
            for (unsigned n : {2u, 4u, 8u, 16u, 32u, 64u, 96u, 128u}) {
                SCOPED_TRACE("protocol " + std::to_string(p) + " " +
                             to_string(level) + " N=" + std::to_string(n));
                const MvaResult flat = solver.solve(d, n);
                for (unsigned k : {1u, 2u, 3u}) {
                    if (k > n)
                        continue;
                    const MulticlassResult multi =
                        solveMulticlass(identicalClasses(d, n, k));
                    worst = std::max(
                        worst, relErr(multi.totalSpeedup, flat.speedup));
                    for (const ClassResult &c : multi.classes) {
                        worst = std::max(worst, relErr(c.responseTime,
                                                       flat.responseTime));
                    }
                }
            }
        }
    }
    RecordProperty("worst_relative_gap", strprintf("%.3g", worst));
    EXPECT_LE(worst, 1e-9);
}

TEST(MvaFixedPoint, RandomWorkloadsMatchTheFixedPointBatchAndScalar)
{
    // 2048 SplitMix64-drawn cells over serve's whole admitted domain:
    // random workloads (randomWorkload), any of the 16 protocols, N
    // log-uniform in [2, 2^20]. On each, the batch engine reproduces
    // the scalar solve bit for bit and both converge within 1e-8 of
    // R*. A cell that needs a heavier damping than the default 0.5
    // fails here, and should then be added by name as a regression
    // case.
    Rng rng(0x5eed2b);
    std::vector<MvaJob> jobs;
    for (int i = 0; i < 2048; ++i) {
        const WorkloadParams w = randomWorkload(rng);
        MvaJob job;
        job.inputs = DerivedInputs::compute(w, randomProtocol(rng));
        job.n = static_cast<unsigned>(std::exp2(rng.uniform(1.0, 20.0)));
        jobs.push_back(std::move(job));
    }

    auto batch = BatchMvaSolver().solveBatch(jobs);
    ASSERT_EQ(batch.size(), jobs.size());
    MvaSolver solver;
    double worst = 0.0;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const MvaJob &job = jobs[i];
        SCOPED_TRACE("cell " + std::to_string(i) + " protocol " +
                     job.inputs.protocol.name() + " N=" +
                     std::to_string(job.n));
        auto scalar = solver.trySolve(job.inputs, job.n);
        ASSERT_TRUE(scalar.ok()) << scalar.error().message;
        ASSERT_TRUE(batch[i].ok()) << batch[i].error().message;
        const MvaResult &a = scalar.value();
        const MvaResult &b = batch[i].value();
        EXPECT_EQ(a.responseTime, b.responseTime);
        EXPECT_EQ(a.wBus, b.wBus);
        EXPECT_EQ(a.wMem, b.wMem);
        EXPECT_EQ(a.speedup, b.speedup);
        EXPECT_EQ(a.busUtil, b.busUtil);
        EXPECT_EQ(a.residual, b.residual);
        EXPECT_EQ(a.iterations, b.iterations);
        const double err = relErr(a.responseTime,
                                  referenceResponseTime(job.inputs, job.n));
        EXPECT_LE(err, 1e-8);
        worst = std::max(worst, err);
    }
    RecordProperty("worst_relative_error", strprintf("%.3g", worst));
}

TEST(MvaFixedPoint, RandomMulticlassMixesMatchTheirReference)
{
    // Random mixes on one protocol: 1-4 classes, each with its own
    // random workload and 1-32 processors. Each converges at the
    // default options within 1e-8 of its 20 000-step reference. A
    // one-class mix, and the same workload split into 1-4 identical
    // classes, also land within 1e-9 of MvaSolver.
    Rng rng(0x3c1a55);
    MvaSolver solver;
    double worst_ref = 0.0, worst_flat = 0.0;
    for (int i = 0; i < 1024; ++i) {
        SCOPED_TRACE("mix " + std::to_string(i));
        const ProtocolConfig protocol = randomProtocol(rng);
        std::vector<ProcessorClass> classes(1 + rng.uniformInt(4));
        for (ProcessorClass &c : classes) {
            c.name = "c";
            c.count = 1 + static_cast<unsigned>(rng.uniformInt(32));
            c.inputs = DerivedInputs::compute(randomWorkload(rng), protocol);
        }
        const MulticlassResult res = solveMulticlass(classes);
        const MulticlassResult ref =
            solveMulticlass(classes, referenceOptions());
        ASSERT_TRUE(res.converged);
        for (size_t k = 0; k < classes.size(); ++k) {
            const double err = relErr(res.classes[k].responseTime,
                                      ref.classes[k].responseTime);
            EXPECT_LE(err, 1e-8) << "class " << k;
            worst_ref = std::max(worst_ref, err);
        }

        // The first class's workload over all the mix's processors,
        // as one class and as k identical ones.
        unsigned n = 0;
        for (const ProcessorClass &c : classes)
            n += c.count;
        const MvaResult flat = solver.solve(classes[0].inputs, n);
        const unsigned k =
            std::min(n, 1 + static_cast<unsigned>(rng.uniformInt(4)));
        for (unsigned parts : {1u, k}) {
            const MulticlassResult multi = solveMulticlass(
                identicalClasses(classes[0].inputs, n, parts));
            const double err = relErr(multi.totalSpeedup, flat.speedup);
            EXPECT_LE(err, 1e-9) << parts << " classes, N=" << n;
            worst_flat = std::max(worst_flat, err);
        }
    }
    RecordProperty("worst_relative_error", strprintf("%.3g", worst_ref));
    RecordProperty("worst_relative_gap", strprintf("%.3g", worst_flat));
}

TEST(MvaFixedPoint, RandomHierarchicalShapesMatchTheirReference)
{
    // Random two-level machines: C and P in 1..16, a random workload
    // and protocol mapped through hierarchicalFromFlat with a random
    // cluster_share. Each converges at the default options within
    // 1e-8 of its 20 000-step reference.
    Rng rng(0x41e7a2);
    double worst = 0.0;
    for (int i = 0; i < 2048; ++i) {
        const auto d =
            DerivedInputs::compute(randomWorkload(rng), randomProtocol(rng));
        const unsigned clusters = 1 + static_cast<unsigned>(rng.uniformInt(16));
        const unsigned per = 1 + static_cast<unsigned>(rng.uniformInt(16));
        const HierarchicalConfig cfg =
            hierarchicalFromFlat(d, clusters, per, rng.uniform());
        SCOPED_TRACE("shape " + std::to_string(i) + " C=" +
                     std::to_string(clusters) + " P=" + std::to_string(per));
        const HierarchicalResult res = solveHierarchical(cfg);
        const HierarchicalResult ref =
            solveHierarchical(cfg, referenceOptions());
        ASSERT_TRUE(res.converged);
        const double err = relErr(res.responseTime, ref.responseTime);
        EXPECT_LE(err, 1e-8);
        worst = std::max(worst, err);
    }
    RecordProperty("worst_relative_error", strprintf("%.3g", worst));
}

} // namespace
} // namespace snoop
