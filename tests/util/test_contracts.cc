/** Unit tests for util/contracts: macros and NumericGuard. */

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/contracts.hh"
#include "util/expected.hh"

namespace snoop {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// --- macros ----------------------------------------------------------

TEST(Contracts, PassingChecksAreSilent)
{
    SNOOP_ASSERT(1 + 1 == 2);
    SNOOP_ASSERT(true, "with a message %d", 42);
    SNOOP_REQUIRE(3 > 2);
    SNOOP_REQUIRE(3 > 2, "n = %u", 3u);
    SNOOP_NUMERIC_CHECK(std::isfinite(0.5));
    SNOOP_NUMERIC_CHECK(0.5 < 1.0, "p = %g", 0.5);
}

TEST(ContractsDeath, AssertAborts)
{
    EXPECT_DEATH(SNOOP_ASSERT(1 == 2), "assertion.*1 == 2");
}

TEST(ContractsDeath, AssertFormatsMessage)
{
    EXPECT_DEATH(SNOOP_ASSERT(false, "index %d out of range", 7),
                 "assertion.*index 7 out of range");
}

TEST(ContractsDeath, RequireExitsWithCode1)
{
    // fatal() idiom: user error, exit(1), no core dump.
    EXPECT_EXIT(SNOOP_REQUIRE(false, "need at least %u processors", 1u),
                testing::ExitedWithCode(1), "requirement.*processors");
}

TEST(ContractsDeath, RequireOkExitsWithTheErrorText)
{
    // A failed structured check exits 1 (fatal idiom) and carries the
    // error's describe() text.
    auto failing = [] {
        return Expected<void>(makeError(SolveErrorCode::InvalidArgument,
                                        "Widget", "size = %d", -3));
    };
    EXPECT_EXIT(SNOOP_REQUIRE_OK(failing()), testing::ExitedWithCode(1),
                "requirement .*failing\\(\\).*"
                "\\[invalid-argument\\] Widget: size = -3");
}

TEST(ContractsDeath, NumericCheckAbortsWithPrefix)
{
    EXPECT_DEATH(SNOOP_NUMERIC_CHECK(std::isfinite(kNaN),
                                     "R diverged at iteration %d", 3),
                 "numeric.*diverged at iteration 3");
}

TEST(ContractsDeath, ConditionSideEffectsHappenExactlyOnce)
{
    // The macros must evaluate their condition exactly once.
    int calls = 0;
    auto once = [&calls]() {
        ++calls;
        return true;
    };
    SNOOP_ASSERT(once());
    EXPECT_EQ(calls, 1);
    int checks = 0;
    SNOOP_REQUIRE_OK(([&checks] {
        ++checks;
        return Expected<void>();
    }()));
    EXPECT_EQ(checks, 1);
}

// --- NumericGuard: passing values ------------------------------------

TEST(NumericGuard, CleanValuesPassAllChecks)
{
    NumericGuard g("TestSolver", "N=4");
    g.finite("x", 1.5)
        .nonNegative("w", 0.0)
        .positive("R", 3.25)
        .probability("p", 1.0)
        .utilization("u", 0.997)
        .finiteVector("v", {0.0, 1.0, -2.5})
        .distribution("pi", {0.25, 0.25, 0.5})
        .stochasticRows("P", {0.5, 0.5, 0.1, 0.9}, 2)
        .converged("solve", true);
}

TEST(NumericGuard, SlackAbsorbsHonestRounding)
{
    NumericGuard g("TestSolver");
    g.utilization("u", 1.0 + 1e-12);
    g.probability("p", -1e-12);
    g.nonNegative("w", -1e-12);
    g.distribution("pi", {0.5 + 1e-9, 0.5 - 1e-9});
}

// --- NumericGuard: violations panic ----------------------------------

TEST(NumericGuardDeath, NaNIsNotFinite)
{
    NumericGuard g("TestSolver");
    EXPECT_DEATH(g.finite("R", kNaN), "numeric TestSolver.*R.*not finite");
}

TEST(NumericGuardDeath, InfinityIsNotFinite)
{
    NumericGuard g("TestSolver");
    EXPECT_DEATH(g.finite("R", kInf), "not finite");
}

TEST(NumericGuardDeath, NegativeValueFailsNonNegative)
{
    NumericGuard g("TestSolver");
    EXPECT_DEATH(g.nonNegative("w", -0.25), "is negative");
}

TEST(NumericGuardDeath, ZeroFailsPositive)
{
    NumericGuard g("TestSolver");
    EXPECT_DEATH(g.positive("R", 0.0), "not positive");
}

TEST(NumericGuardDeath, ProbabilityAboveOneFails)
{
    NumericGuard g("TestSolver");
    EXPECT_DEATH(g.probability("p", 1.3), "not a probability");
}

TEST(NumericGuardDeath, UtilizationAboveOneFails)
{
    NumericGuard g("TestSolver");
    EXPECT_DEATH(g.utilization("u", 1.02), "not a utilization");
}

TEST(NumericGuardDeath, NonFiniteVectorComponentIsNamed)
{
    NumericGuard g("TestSolver");
    EXPECT_DEATH(g.finiteVector("x", {1.0, kNaN, 3.0}),
                 "x\\[1\\].*not finite");
}

TEST(NumericGuardDeath, DistributionMustSumToOne)
{
    NumericGuard g("TestSolver");
    EXPECT_DEATH(g.distribution("pi", {0.5, 0.4}),
                 "sum\\(pi\\).*does not sum to 1");
}

TEST(NumericGuardDeath, StochasticRowSumViolationIsNamed)
{
    NumericGuard g("TestSolver");
    EXPECT_DEATH(g.stochasticRows("P", {0.5, 0.5, 0.3, 0.3}, 2),
                 "rowsum\\(P\\[1\\]\\)");
}

TEST(NumericGuardDeath, StochasticMatrixDimensionChecked)
{
    NumericGuard g("TestSolver");
    EXPECT_DEATH(g.stochasticRows("P", {0.5, 0.5, 1.0}, 2),
                 "dim\\(P\\)");
}

TEST(NumericGuardDeath, UnconvergedFlagPanics)
{
    NumericGuard g("TestSolver");
    EXPECT_DEATH(g.converged("solve", false), "non-convergence");
}

TEST(NumericGuardDeath, DetailAppearsInMessage)
{
    NumericGuard g("MvaSolver", "N=12 protocol=WO");
    EXPECT_DEATH(g.positive("speedup", -1.0), "N=12 protocol=WO");
}

} // namespace
} // namespace snoop
