/**
 * Property tests for the MVA model: structural invariants that must
 * hold across the whole (sharing level, protocol, N) design space.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "mva/batch_solver.hh"
#include "mva/kernel.hh"
#include "mva/solver.hh"
#include "random/rng.hh"

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
    MvaOptions undamped;
    undamped.damping = 1.0;
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

/** Iterations of a solve across every ladder attempt. */
int
totalIterations(const MvaResult &r)
{
    int total = 0;
    for (const SolveAttempt &a : r.attempts)
        total += a.iterations;
    return total;
}

TEST(MvaFixedPoint, AppendixAGridIsWithinOneNanoOfTheFixedPoint)
{
    // 16 protocols x 3 Appendix A sharing levels x 8 sizes: the
    // default solve stops within 1e-9 of R* (relative) on every cell,
    // in tens of iterations on average, on its first attempt.
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
                EXPECT_EQ(r.value().attempts.size(), 1u);
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

TEST(MvaFixedPoint, RandomWorkloadsMatchTheFixedPointBatchAndScalar)
{
    // 2048 SplitMix64-drawn cells: every probability of the workload
    // uniform in [0, 1], shared streams up to 40% sw and 20% sro, tau
    // in [0, 20], any of the 16 protocols, N in [2, 128]. On each,
    // the batch engine reproduces the scalar solve bit for bit and
    // both land within 1e-8 of R*. The cells that needed a recovery
    // rung below the default 0.5 are counted; none did when this was
    // written, which is the evidence on whether the ladder still
    // earns its code. A cell that does should be added here by name
    // as a regression case.
    Rng rng(0x5eed2b);
    std::vector<MvaJob> jobs;
    for (int i = 0; i < 2048; ++i) {
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
        const auto protocol = static_cast<unsigned>(rng.uniformInt(16));
        MvaJob job;
        job.inputs =
            DerivedInputs::compute(w, ProtocolConfig::fromIndex(protocol));
        job.n = 2 + static_cast<unsigned>(rng.uniformInt(127));
        jobs.push_back(std::move(job));
    }

    auto batch = BatchMvaSolver().solveBatch(jobs);
    ASSERT_EQ(batch.size(), jobs.size());
    MvaSolver solver;
    int below_default_rung = 0;
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
        EXPECT_EQ(totalIterations(a), totalIterations(b));
        EXPECT_EQ(a.attempts.size(), b.attempts.size());
        if (a.attempts.size() > 1)
            ++below_default_rung;
        const double ref = referenceResponseTime(job.inputs, job.n);
        const double err = std::fabs(a.responseTime - ref) / ref;
        EXPECT_LE(err, 1e-8);
        worst = std::max(worst, err);
    }
    RecordProperty("worst_relative_error", std::to_string(worst));
    RecordProperty("cells_below_default_rung",
                   std::to_string(below_default_rung));
    EXPECT_EQ(below_default_rung, 0);
}

} // namespace
} // namespace snoop
