/** Unit tests for util/expected: SolveError, SolveException,
 *  Expected<T>, SNOOP_TRY / SNOOP_TRY_OR and match(). */

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

// --- SNOOP_TRY / SNOOP_TRY_OR / match() --------------------------------

SolveError
sampleError()
{
    SolveError e =
        makeError(SolveErrorCode::NonConvergence, "MvaSolver::solve",
                  "no convergence after %d iterations", 7);
    e.withContext("inner frame");
    return e;
}

/** Counts how often the expression under test is evaluated. */
struct Source {
    int calls = 0;
    bool fail = false;

    Expected<int>
    next()
    {
        ++calls;
        if (fail)
            return sampleError();
        return 10 * calls;
    }
};

void
expectSameError(const SolveError &got, const SolveError &want)
{
    EXPECT_EQ(got.code, want.code);
    EXPECT_EQ(got.site, want.site);
    EXPECT_EQ(got.message, want.message);
    EXPECT_EQ(got.context, want.context);
}

Expected<int>
doubled(Source &src)
{
    SNOOP_TRY(int v, src.next());
    return 2 * v;
}

Expected<void>
store(Source &src, int &out)
{
    SNOOP_TRY(out, src.next()); // binds to an existing lvalue
    return {};
}

/** The recoverRequestId shape: map any error to a plain fallback. */
int
orMinusOne(Source &src)
{
    SNOOP_TRY_OR(int v, src.next(), [](SolveError &&) { return -1; });
    return v;
}

Expected<int>
annotated(Source &src)
{
    SNOOP_TRY_OR(int v, src.next(), [](SolveError &&e) {
        return std::move(e).withContext("outer frame");
    });
    return v;
}

Expected<void>
annotatedVoid(Source &src)
{
    SNOOP_TRY_OR(int v, src.next(), [](SolveError &&e) {
        return std::move(e).withContext("outer frame");
    });
    return v > 0 ? Expected<void>()
                 : makeError(SolveErrorCode::NumericRange, "t", "v <= 0");
}

TEST(SnoopTry, BindsTheValueAndEvaluatesTheExpressionOnce)
{
    Source src;
    Expected<int> r = doubled(src);
    ASSERT_TRUE(r);
    EXPECT_EQ(r.value(), 20);
    EXPECT_EQ(src.calls, 1);

    int out = 0;
    ASSERT_TRUE(store(src, out));
    EXPECT_EQ(out, 20);
    EXPECT_EQ(src.calls, 2);
}

TEST(SnoopTry, ReturnsTheErrorUnchangedAfterOneEvaluation)
{
    Source src{.fail = true};
    Expected<int> r = doubled(src);
    ASSERT_FALSE(r);
    expectSameError(r.error(), sampleError());
    EXPECT_EQ(src.calls, 1);

    int out = 3;
    Expected<void> v = store(src, out);
    ASSERT_FALSE(v);
    expectSameError(v.error(), sampleError());
    EXPECT_EQ(out, 3); // untouched on error
    EXPECT_EQ(src.calls, 2);
}

TEST(SnoopTry, MovesAMoveOnlyValue)
{
    int *raw = nullptr;
    auto make = [&]() -> Expected<std::unique_ptr<int>> {
        auto p = std::make_unique<int>(5);
        raw = p.get();
        return p;
    };
    auto use = [&]() -> Expected<int *> {
        SNOOP_TRY(std::unique_ptr<int> p, make());
        return p.get();
    };
    Expected<int *> r = use();
    ASSERT_TRUE(r);
    EXPECT_EQ(r.value(), raw); // the same object, moved, not copied
}

TEST(SnoopTry, BindsAReferenceWithoutACopy)
{
    struct Counted {
        int *copies;
        Counted(int *c) : copies(c) {}
        Counted(const Counted &o) : copies(o.copies) { ++*copies; }
        Counted(Counted &&o) noexcept : copies(o.copies) {}
    };
    int copies = 0;
    auto make = [&]() -> Expected<Counted> { return Counted(&copies); };
    auto use = [&]() -> Expected<void> {
        SNOOP_TRY(const Counted &ref, make());
        SNOOP_TRY(Counted moved, make());
        return ref.copies == moved.copies
            ? Expected<void>()
            : makeError(SolveErrorCode::Internal, "t", "mismatch");
    };
    ASSERT_TRUE(use());
    EXPECT_EQ(copies, 0);
}

TEST(SnoopTryOr, MapsTheErrorToAPlainValue)
{
    Source ok;
    EXPECT_EQ(orMinusOne(ok), 10);
    Source bad{.fail = true};
    EXPECT_EQ(orMinusOne(bad), -1);
    EXPECT_EQ(bad.calls, 1);
}

TEST(SnoopTryOr, RewrapsTheErrorInExpectedAndVoidFunctions)
{
    SolveError want = sampleError();
    want.withContext("outer frame");

    Source bad{.fail = true};
    Expected<int> r = annotated(bad);
    ASSERT_FALSE(r);
    expectSameError(r.error(), want);

    Expected<void> v = annotatedVoid(bad);
    ASSERT_FALSE(v);
    expectSameError(v.error(), want);
    EXPECT_EQ(bad.calls, 2);

    Source ok;
    EXPECT_EQ(annotated(ok).valueOr(0), 10);
    EXPECT_TRUE(annotatedVoid(ok));
}

TEST(Match, CallsExactlyOneArm)
{
    int okCalls = 0, errCalls = 0;
    auto onOk = [&](int v) {
        ++okCalls;
        return v + 1;
    };
    auto onErr = [&](const SolveError &) {
        ++errCalls;
        return -1;
    };
    Expected<int> good = 41;
    EXPECT_EQ(good.match(onOk, onErr), 42);
    EXPECT_EQ(okCalls, 1);
    EXPECT_EQ(errCalls, 0);

    Expected<int> bad = sampleError();
    EXPECT_EQ(bad.match(onOk, onErr), -1);
    EXPECT_EQ(okCalls, 1);
    EXPECT_EQ(errCalls, 1);
}

TEST(Match, PassesTheErrorThroughUnchanged)
{
    SolveError seen;
    Expected<int> bad = sampleError();
    std::move(bad).match([](int &&) { FAIL() << "ok arm on an error"; },
                         [&](SolveError &&e) { seen = std::move(e); });
    expectSameError(seen, sampleError());

    const Expected<int> badConst = sampleError();
    badConst.match([](int) { FAIL() << "ok arm on an error"; },
                   [&](const SolveError &e) { seen = e; });
    expectSameError(seen, sampleError());
}

TEST(Match, RvalueMatchMovesTheValue)
{
    Expected<std::unique_ptr<int>> r = std::make_unique<int>(9);
    std::unique_ptr<int> out = std::move(r).match(
        [](std::unique_ptr<int> &&p) { return std::move(p); },
        [](SolveError &&) { return std::unique_ptr<int>(); });
    ASSERT_TRUE(out != nullptr);
    EXPECT_EQ(*out, 9);
}

} // namespace
} // namespace snoop
