/** Unit tests for util/expected: SolveError, SolveException,
 *  Expected<T>. */

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "util/expected.hh"

namespace snoop {
namespace {

TEST(SolveError, CodesHaveStableKebabCaseNames)
{
    EXPECT_STREQ(to_string(SolveErrorCode::InvalidArgument),
                 "invalid-argument");
    EXPECT_STREQ(to_string(SolveErrorCode::UnknownProtocol),
                 "unknown-protocol");
    EXPECT_STREQ(to_string(SolveErrorCode::NonConvergence),
                 "non-convergence");
    EXPECT_STREQ(to_string(SolveErrorCode::NonFiniteIterate),
                 "non-finite-iterate");
    EXPECT_STREQ(to_string(SolveErrorCode::NumericRange),
                 "numeric-range");
    EXPECT_STREQ(to_string(SolveErrorCode::BudgetExhausted),
                 "budget-exhausted");
    EXPECT_STREQ(to_string(SolveErrorCode::InjectedFault),
                 "injected-fault");
    EXPECT_STREQ(to_string(SolveErrorCode::IoError), "io-error");
    EXPECT_STREQ(to_string(SolveErrorCode::Internal), "internal");
}

TEST(SolveError, MakeErrorFormatsMessage)
{
    auto e = makeError(SolveErrorCode::NumericRange, "MvaSolver::solve",
                       "busUtil = %g violates [0, 1]", 1.25);
    EXPECT_EQ(e.code, SolveErrorCode::NumericRange);
    EXPECT_EQ(e.site, "MvaSolver::solve");
    EXPECT_EQ(e.message, "busUtil = 1.25 violates [0, 1]");
    EXPECT_TRUE(e.context.empty());
}

TEST(SolveError, DescribeRendersCodeSiteMessageAndContext)
{
    auto e = makeError(SolveErrorCode::NonConvergence, "solveMulticlass",
                       "no convergence");
    std::string plain = e.describe();
    EXPECT_NE(plain.find("non-convergence"), std::string::npos);
    EXPECT_NE(plain.find("solveMulticlass"), std::string::npos);
    EXPECT_NE(plain.find("no convergence"), std::string::npos);

    // Context frames accumulate innermost-first and all render.
    e.withContext("MvaSolver::trySolve(N=8)")
        .withContext("Analyzer::tryAnalyze(WriteOnce)");
    ASSERT_EQ(e.context.size(), 2u);
    EXPECT_EQ(e.context[0], "MvaSolver::trySolve(N=8)");
    std::string full = e.describe();
    EXPECT_NE(full.find("MvaSolver::trySolve(N=8)"), std::string::npos);
    EXPECT_NE(full.find("Analyzer::tryAnalyze(WriteOnce)"),
              std::string::npos);
}

TEST(SolveError, RvalueWithContextChainsOnTemporaries)
{
    auto e = makeError(SolveErrorCode::Internal, "site", "boom")
                 .withContext("outer");
    ASSERT_EQ(e.context.size(), 1u);
    EXPECT_EQ(e.context[0], "outer");
}

TEST(SolveException, WhatIsTheDescribedError)
{
    SolveException ex(makeError(SolveErrorCode::UnknownProtocol,
                                "Analyzer::tryAnalyze",
                                "unknown protocol 'firefly'"));
    EXPECT_EQ(ex.error().code, SolveErrorCode::UnknownProtocol);
    EXPECT_EQ(std::string(ex.what()), ex.error().describe());
    EXPECT_NE(std::string(ex.what()).find("firefly"), std::string::npos);
}

TEST(Expected, HoldsValue)
{
    Expected<int> r = 42;
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(static_cast<bool>(r));
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(r.valueOr(7), 42);
    EXPECT_EQ(r.orThrow(), 42);
}

TEST(Expected, HoldsError)
{
    Expected<int> r =
        makeError(SolveErrorCode::InvalidArgument, "site", "bad");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_EQ(r.valueOr(7), 7);
    try {
        r.orThrow();
        FAIL() << "expected SolveException";
    } catch (const SolveException &e) {
        EXPECT_EQ(e.error().code, SolveErrorCode::InvalidArgument);
    }
}

TEST(Expected, MoveOnlyValuesMoveThroughOrThrow)
{
    auto make = []() -> Expected<std::unique_ptr<int>> {
        return std::make_unique<int>(5);
    };
    auto p = std::move(make()).orThrow();
    ASSERT_TRUE(p != nullptr);
    EXPECT_EQ(*p, 5);
}

TEST(ExpectedVoid, DefaultIsSuccess)
{
    Expected<void> ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_NO_THROW(ok.orThrow());
}

TEST(ExpectedVoid, ErrorThrowsAndDescribes)
{
    Expected<void> bad =
        makeError(SolveErrorCode::IoError, "AtomicFile::commit",
                  "rename failed");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, SolveErrorCode::IoError);
    EXPECT_THROW(bad.orThrow(), SolveException);
}

} // namespace
} // namespace snoop
