/**
 * Tests for the MVA solver's numeric guards and non-convergence
 * policy: a solve that exhausts its iteration budget must be an error
 * (the default) or pass silently exactly as
 * MvaOptions::onNonConvergence directs, and every result the solver
 * does hand back must satisfy the validity contract (finite, positive
 * response time, utilizations and probabilities in range).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "mva/solver.hh"

namespace snoop {
namespace {

DerivedInputs
appendixAInputs(SharingLevel level, const std::string &mods)
{
    return DerivedInputs::compute(presets::appendixA(level),
                                  ProtocolConfig::fromModString(mods));
}

/**
 * One iteration cannot converge a contended 10-processor system.
 * The policy is left at its default unless @p policy names one.
 */
MvaOptions
divergentOptions(std::optional<NonConvergencePolicy> policy = {})
{
    MvaOptions opts;
    opts.maxIterations = 1;
    if (policy)
        opts.onNonConvergence = *policy;
    return opts;
}

TEST(SolverGuards, AcceptPolicyIsSilent)
{
    MvaSolver solver(divergentOptions(NonConvergencePolicy::Accept));
    testing::internal::CaptureStderr();
    auto r = solver.solve(appendixAInputs(SharingLevel::FivePercent, ""),
                          10);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(err.find("no convergence"), std::string::npos);
    // The partial result still passed the numeric guard on the way out.
    EXPECT_GT(r.speedup, 0.0);
    EXPECT_GT(r.responseTime, 0.0);
    EXPECT_LE(r.busUtil, 1.0 + 1e-9);
}

TEST(SolverGuards, FatalPolicyThrowsSolveException)
{
    // Fatal is the default: default-constructed options throw too.
    const MvaOptions starved[] = {
        divergentOptions(), divergentOptions(NonConvergencePolicy::Fatal)};
    for (const MvaOptions &opts : starved) {
        MvaSolver solver(opts);
        try {
            solver.solve(appendixAInputs(SharingLevel::FivePercent, ""),
                         10);
            FAIL() << "expected SolveException";
        } catch (const SolveException &e) {
            EXPECT_EQ(e.error().code, SolveErrorCode::NonConvergence);
            EXPECT_NE(std::string(e.what()).find("no convergence"),
                      std::string::npos);
        }
    }
}

TEST(SolverGuards, FatalPolicyIsAnErrorThroughTrySolve)
{
    const MvaOptions starved[] = {
        divergentOptions(), divergentOptions(NonConvergencePolicy::Fatal)};
    for (const MvaOptions &opts : starved) {
        MvaSolver solver(opts);
        auto r = solver.trySolve(
            appendixAInputs(SharingLevel::FivePercent, ""), 10);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().code, SolveErrorCode::NonConvergence);
    }
}

TEST(SolverGuards, ConvergedSolveIsUnaffectedByPolicy)
{
    // The policy only matters on non-convergence; a clean solve must
    // produce identical results under both.
    auto inputs = appendixAInputs(SharingLevel::FivePercent, "");
    MvaResult results[2];
    NonConvergencePolicy policies[] = {NonConvergencePolicy::Fatal,
                                       NonConvergencePolicy::Accept};
    for (int i = 0; i < 2; ++i) {
        MvaOptions opts;
        opts.onNonConvergence = policies[i];
        MvaSolver solver(opts);
        results[i] = solver.solve(inputs, 8);
        EXPECT_TRUE(results[i].converged);
    }
    EXPECT_DOUBLE_EQ(results[0].speedup, results[1].speedup);
    EXPECT_DOUBLE_EQ(results[0].responseTime, results[1].responseTime);
}

TEST(SolverGuards, GuardedOutputsAreInRangeAcrossTheSweep)
{
    // Every solve in a broad sweep runs the output guard internally;
    // reaching this point without a panic means all outputs validated.
    MvaSolver solver;
    for (auto level : kSharingLevels) {
        for (const char *mods : {"", "1", "14", "123"}) {
            for (unsigned n : {1u, 2u, 10u, 100u, 1000u}) {
                auto r = solver.solve(appendixAInputs(level, mods), n);
                EXPECT_TRUE(r.converged);
                EXPECT_GE(r.busUtil, 0.0);
                EXPECT_LE(r.busUtil, 1.0 + 1e-9);
                EXPECT_GE(r.pBusyBus, 0.0);
                EXPECT_LE(r.pBusyBus, 1.0 + 1e-9);
            }
        }
    }
}

TEST(SolverGuards, NonFiniteOrNegativeSeedIsRejected)
{
    MvaSolver solver;
    auto inputs = appendixAInputs(SharingLevel::FivePercent, "");
    for (MvaSeed seed : {MvaSeed{std::nan(""), 0.0, 0.0},
                         MvaSeed{0.0, INFINITY, 0.0},
                         MvaSeed{0.0, 0.0, -1.0}}) {
        auto r = solver.trySolve(inputs, 10, seed);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().code, SolveErrorCode::InvalidArgument);
        EXPECT_NE(r.error().message.find("seed"), std::string::npos);
    }
}

TEST(SolverGuards, AllZeroSeedIsExactlyTheColdStart)
{
    MvaSolver solver;
    auto inputs = appendixAInputs(SharingLevel::FivePercent, "13");
    auto cold = solver.trySolve(inputs, 10);
    auto zero = solver.trySolve(inputs, 10, MvaSeed{});
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(zero.ok());
    EXPECT_FALSE(cold.value().warmStarted);
    EXPECT_FALSE(zero.value().warmStarted);
    EXPECT_EQ(cold.value().iterations, zero.value().iterations);
    EXPECT_EQ(cold.value().speedup, zero.value().speedup);
    EXPECT_EQ(cold.value().responseTime, zero.value().responseTime);
}

TEST(SolverGuards, SelfSeedConvergesAlmostImmediately)
{
    MvaSolver solver;
    auto inputs = appendixAInputs(SharingLevel::FivePercent, "13");
    auto cold = solver.trySolve(inputs, 10);
    ASSERT_TRUE(cold.ok());
    auto warm = solver.trySolve(inputs, 10,
                                MvaSeed::fromResult(cold.value()));
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm.value().warmStarted);
    // Restarting at the fixed point needs only the iterations that
    // confirm it is one.
    EXPECT_LE(warm.value().iterations, 3);
}

TEST(SolverGuards, NearbySeedConvergesFasterAndAgrees)
{
    MvaSolver solver;
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    auto protocol = ProtocolConfig::fromModString("13");
    auto anchor =
        solver.trySolve(DerivedInputs::compute(wl, protocol), 10);
    ASSERT_TRUE(anchor.ok());

    wl.hSw += 1e-3; // a near-duplicate query
    auto inputs = DerivedInputs::compute(wl, protocol);
    auto cold = solver.trySolve(inputs, 10);
    auto warm = solver.trySolve(inputs, 10,
                                MvaSeed::fromResult(anchor.value()));
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(warm.ok());
    EXPECT_LT(warm.value().iterations, cold.value().iterations);
    // Both runs stop at the same tolerance, so the answers agree to
    // the envelope documented in docs/SERVING.md.
    EXPECT_NEAR(warm.value().responseTime, cold.value().responseTime,
                1e-5 * cold.value().responseTime);
    EXPECT_NEAR(warm.value().speedup, cold.value().speedup,
                1e-5 * cold.value().speedup);
}

TEST(SolverGuards, IterationBudgetExhaustionIsRecorded)
{
    MvaOptions opts;
    opts.iterationBudget = 3;
    opts.onNonConvergence = NonConvergencePolicy::Accept;
    MvaSolver solver(opts);
    auto r = solver.trySolve(
        appendixAInputs(SharingLevel::FivePercent, ""), 10);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.value().converged);
    EXPECT_TRUE(r.value().budgetExhausted);
}

TEST(SolverGuards, IterationBudgetUnderFatalIsAStructuredError)
{
    MvaOptions opts;
    opts.iterationBudget = 3;
    opts.onNonConvergence = NonConvergencePolicy::Fatal;
    MvaSolver solver(opts);
    auto r = solver.trySolve(
        appendixAInputs(SharingLevel::FivePercent, ""), 10);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, SolveErrorCode::BudgetExhausted);
}

TEST(SolverGuards, ExpiredTimeBudgetIsAStructuredError)
{
    // A budget that expires before the first iteration used to come
    // back as a *value*: speedup == N (perfect linear speedup),
    // responseTime == tau + tSupply, every submodel measure zero -
    // plausible-looking garbage under Accept. Zero completed
    // iterations must be a BudgetExhausted error instead, under
    // every policy.
    MvaOptions opts;
    opts.timeBudget = 1e-12; // expires before the first check
    opts.onNonConvergence = NonConvergencePolicy::Accept;
    MvaSolver solver(opts);
    auto r = solver.trySolve(
        appendixAInputs(SharingLevel::FivePercent, ""), 10);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, SolveErrorCode::BudgetExhausted);
    EXPECT_NE(r.error().message.find("before the first iteration"),
              std::string::npos)
        << r.error().describe();
}

} // namespace
} // namespace snoop
