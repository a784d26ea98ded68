/** Unit tests for the MVA solver core behaviors. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "iteration_deltas.hh"
#include "mva/solver.hh"
#include "observe/trace.hh"

namespace snoop {
namespace {

DerivedInputs
appendixAInputs(SharingLevel level, const std::string &mods)
{
    return DerivedInputs::compute(presets::appendixA(level),
                                  ProtocolConfig::fromModString(mods));
}

TEST(MvaSolver, SingleProcessorHasNoContention)
{
    MvaSolver solver;
    auto r = solver.solve(appendixAInputs(SharingLevel::FivePercent, ""), 1);
    EXPECT_TRUE(r.converged);
    EXPECT_DOUBLE_EQ(r.wBus, 0.0);
    EXPECT_DOUBLE_EQ(r.qBus, 0.0);
    EXPECT_DOUBLE_EQ(r.nInterference, 0.0);
    // R = tau + p_bc*T_write + p_rr*t_read + T_supply
    auto &d = r.inputs;
    double expected =
        d.tau + d.pBc * d.timing.tWrite + d.pRr * d.tRead +
        d.timing.tSupply;
    EXPECT_NEAR(r.responseTime, expected, 1e-9);
    EXPECT_NEAR(r.speedup, (d.tau + 1.0) / expected, 1e-9);
}

TEST(MvaSolver, SpeedupFormulaMatchesSection4)
{
    MvaSolver solver;
    auto r = solver.solve(appendixAInputs(SharingLevel::FivePercent, ""), 8);
    EXPECT_NEAR(r.speedup, 8.0 * (2.5 + 1.0) / r.responseTime, 1e-12);
    EXPECT_NEAR(r.processingPower, 8.0 * 2.5 / r.responseTime, 1e-12);
    // Section 4.4: processing power = speedup * tau / (tau + T_supply)
    EXPECT_NEAR(r.processingPower, r.speedup * 2.5 / 3.5, 1e-12);
}

TEST(MvaSolver, ConvergesWithinPaperBudget)
{
    // Section 3.2: "Solution of the equations converged within 15
    // iterations in all experiments reported in this paper." The
    // paper's detailed-model comparisons go up to N=10; near-saturated
    // systems (N >= 20) converge but need more steps, so the 15-step
    // bound is asserted over the paper's range and plain convergence
    // beyond it.
    // Tolerance 1e-3 (relative) resolves speedups to the three
    // significant digits the paper's tables report. The claim is
    // about plain substitution, so damping is the paper's 1, not the
    // library default.
    // One cell stops at 16: at 20% sharing, Write-Once, N=10, plain
    // substitution oscillates and R still moves by 1.4e-3 at step 15,
    // so the stop test (a step below the tolerance) first holds at
    // step 16. Its count is pinned. The claim holds there as a
    // distance: after 15 plain steps every speedup in the range is
    // within the tolerance of the fixed point (a tight default solve).
    MvaOptions opts;
    opts.tolerance = 1e-3;
    opts.damping = 1.0;
    MvaSolver solver(opts);
    MvaOptions paper = opts;
    paper.maxIterations = 15;
    paper.onNonConvergence = NonConvergencePolicy::Accept;
    const MvaSolver fifteen(paper), exact;
    for (auto level : kSharingLevels) {
        for (const char *mods : {"", "1", "14", "123"}) {
            for (unsigned n : {1u, 2u, 6u, 10u, 20u, 100u}) {
                const DerivedInputs d = appendixAInputs(level, mods);
                auto r = solver.solve(d, n);
                EXPECT_TRUE(r.converged);
                if (n > 10)
                    continue;
                const bool oscillating_cell =
                    level == SharingLevel::TwentyPercent &&
                    *mods == '\0' && n == 10;
                if (oscillating_cell) {
                    EXPECT_EQ(r.iterations, 16);
                } else {
                    EXPECT_LE(r.iterations, 15)
                        << "level=" << to_string(level)
                        << " mods=" << mods << " N=" << n;
                }
                const double s = fifteen.solve(d, n).speedup;
                const double s_star = exact.solve(d, n).speedup;
                EXPECT_LE(std::fabs(s - s_star), 1e-3 * s_star)
                    << "level=" << to_string(level)
                    << " mods=" << mods << " N=" << n;
            }
        }
    }
}

TEST(MvaSolver, TraceIsRecordedOnRequest)
{
    observeReset();
    setTrace(TraceLevel::Iteration);
    MvaSolver solver;
    auto r = solver.solve(appendixAInputs(SharingLevel::FivePercent, ""), 6);
    const std::vector<double> deltas =
        iterationDeltas(snapshotTraceEvents(), 0);
    observeReset();
    ASSERT_EQ(static_cast<int>(deltas.size()), r.iterations);
    EXPECT_EQ(deltas.back(), r.residual);
    // The trace holds |R_k - R_{k-1}|, and the stop test (mvaConverged)
    // bounds R's step relative to max(1, |R|): the last entry is below
    // the tolerance on that scale.
    EXPECT_LT(deltas.back() / std::max(1.0, r.responseTime),
              solver.options().tolerance);
}

TEST(MvaSolver, TraceOffByDefault)
{
    observeReset();
    MvaSolver solver;
    (void)solver.solve(appendixAInputs(SharingLevel::FivePercent, ""), 6);
    EXPECT_TRUE(iterationDeltas(snapshotTraceEvents(), 0).empty());
}

TEST(MvaSolver, SweepMatchesIndividualSolves)
{
    MvaSolver solver;
    auto inputs = appendixAInputs(SharingLevel::OnePercent, "1");
    auto sweep = solver.sweep(inputs, {1, 4, 10});
    ASSERT_EQ(sweep.size(), 3u);
    EXPECT_EQ(sweep[0].numProcessors, 1u);
    EXPECT_EQ(sweep[2].numProcessors, 10u);
    auto lone = solver.solve(inputs, 4);
    EXPECT_DOUBLE_EQ(sweep[1].speedup, lone.speedup);
}

TEST(MvaSolver, BusUtilizationMatchesPaperExample)
{
    // Section 4.2: "in the 6-processor case, the GTPN and MVA estimates
    // of bus utilization are approximately 81% and 77%, respectively."
    MvaSolver solver;
    auto r = solver.solve(appendixAInputs(SharingLevel::FivePercent, ""), 6);
    EXPECT_NEAR(r.busUtil, 0.77, 0.04);
}

TEST(MvaSolver, AllLocalWorkloadHasNoBusTraffic)
{
    WorkloadParams p = presets::appendixA(SharingLevel::FivePercent);
    p.hPrivate = p.hSro = p.hSw = 1.0;
    p.amodPrivate = p.amodSw = 1.0;
    MvaSolver solver;
    auto r = solver.solve(p, ProtocolConfig::writeOnce(), 16);
    EXPECT_DOUBLE_EQ(r.busUtil, 0.0);
    EXPECT_DOUBLE_EQ(r.wBus, 0.0);
    // R = tau + T_supply exactly; speedup = N
    EXPECT_NEAR(r.speedup, 16.0, 1e-9);
}

TEST(MvaSolver, ZeroThinkTimeStillSolves)
{
    WorkloadParams p = presets::appendixA(SharingLevel::FivePercent);
    p.tau = 0.0;
    MvaSolver solver;
    auto r = solver.solve(p, ProtocolConfig::writeOnce(), 8);
    EXPECT_TRUE(r.converged);
    EXPECT_GT(r.responseTime, 0.0);
    EXPECT_GT(r.speedup, 0.0);
}

TEST(MvaSolver, CustomTimingPropagates)
{
    BusTiming t;
    t.tReadMem = 20.0;
    MvaSolver solver;
    auto p = presets::appendixA(SharingLevel::FivePercent);
    auto slow = solver.solve(p, ProtocolConfig::writeOnce(), 8, t);
    auto fast = solver.solve(p, ProtocolConfig::writeOnce(), 8);
    EXPECT_LT(slow.speedup, fast.speedup);
}

TEST(MvaSolver, SummaryMentionsHeadlineNumbers)
{
    MvaSolver solver;
    auto r = solver.solve(appendixAInputs(SharingLevel::FivePercent, ""), 6);
    std::string s = r.summary();
    EXPECT_NE(s.find("N=6"), std::string::npos);
    EXPECT_NE(s.find("speedup="), std::string::npos);
}

TEST(MvaSolver, ExhaustedIterationBudgetIsReportedHonestly)
{
    // With a one-iteration budget the solve cannot converge; by
    // default that is an error naming the budget rather than a
    // number that pretends.
    MvaOptions opts;
    opts.maxIterations = 1;
    auto inputs = appendixAInputs(SharingLevel::FivePercent, "");
    auto failed = MvaSolver(opts).trySolve(inputs, 10);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code, SolveErrorCode::NonConvergence);
    EXPECT_NE(failed.error().message.find("no convergence after 1 "
                                          "iterations"),
              std::string::npos);
    // A caller that accepts the partial result sees it marked.
    opts.onNonConvergence = NonConvergencePolicy::Accept;
    auto r = MvaSolver(opts).solve(inputs, 10);
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.iterations, 1);
    // the partial result is still well-formed
    EXPECT_GT(r.speedup, 0.0);
    EXPECT_GT(r.responseTime, 0.0);
}

TEST(MvaSolver, DampedFallbackRescuesSaturatedSystems)
{
    // Deep saturation defeats plain successive substitution; the
    // default damping must still converge on its single attempt (and
    // quietly - no warning).
    MvaSolver solver;
    testing::internal::CaptureStderr();
    auto r = solver.solve(appendixAInputs(SharingLevel::OnePercent, ""),
                          4096);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_TRUE(r.converged);
    ASSERT_EQ(r.attempts.size(), 1u);
    EXPECT_TRUE(r.attempts[0].converged);
    EXPECT_EQ(r.attempts[0].damping, 0.5);
    EXPECT_EQ(err.find("no convergence"), std::string::npos);
    EXPECT_GT(r.busUtil, 0.99);
}

TEST(MvaSolver, ZeroProcessorsThrows)
{
    MvaSolver solver;
    try {
        solver.solve(appendixAInputs(SharingLevel::FivePercent, ""), 0);
        FAIL() << "expected SolveException";
    } catch (const SolveException &e) {
        EXPECT_EQ(e.error().code, SolveErrorCode::InvalidArgument);
        EXPECT_NE(std::string(e.what()).find("at least one"),
                  std::string::npos);
    }
    // And through the non-throwing entry point:
    auto r = solver.trySolve(
        appendixAInputs(SharingLevel::FivePercent, ""), 0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, SolveErrorCode::InvalidArgument);
}

TEST(MvaSolver, BadOptionsThrow)
{
    EXPECT_THROW(MvaSolver(MvaOptions{.maxIterations = 0}),
                 SolveException);
    EXPECT_THROW(MvaSolver(MvaOptions{.tolerance = -1.0}),
                 SolveException);
    EXPECT_THROW(MvaSolver(MvaOptions{.damping = 2.0}), SolveException);
}

} // namespace
} // namespace snoop
