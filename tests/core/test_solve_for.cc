/** Unit tests for the inverse (solve-for-parameter) analysis. */

#include <gtest/gtest.h>

#include "core/solve_for.hh"

namespace snoop {
namespace {

SolveForQuery
hswQuery(double target)
{
    // NOTE: must be a protocol without mod 4 - under mods 1+4 the
    // model pins h_sw to 0.95 (Appendix A note), making the sweep a
    // no-op. Illinois (mods 1+3) passes h_sw through.
    SolveForQuery q;
    q.base = presets::appendixA(SharingLevel::TwentyPercent);
    q.protocol = *findProtocol("Illinois");
    q.n = 20;
    q.paramName = "h_sw";
    q.set = findParamSetter("h_sw");
    q.lo = 0.05;
    q.hi = 0.99;
    q.targetSpeedup = target;
    return q;
}

TEST(SolveFor, FindsValueThatHitsTheTarget)
{
    Analyzer analyzer;
    auto q = hswQuery(0.0);
    auto probe = solveForParameter(q, analyzer);
    ASSERT_GT(probe.speedupAtHi, probe.speedupAtLo);
    double target =
        0.5 * (probe.speedupAtLo + probe.speedupAtHi);
    q.targetSpeedup = target;
    auto r = solveForParameter(q, analyzer);
    ASSERT_TRUE(r.value.has_value());
    // verify by forward evaluation
    WorkloadParams wl = q.base;
    q.set(wl, *r.value);
    double s = analyzer.analyze(q.protocol, wl, q.n).speedup;
    EXPECT_NEAR(s, target, 0.01);
    EXPECT_GT(*r.value, q.lo);
    EXPECT_LT(*r.value, q.hi);
}

TEST(SolveFor, UnattainableTargetsReturnNullopt)
{
    auto low = solveForParameter(hswQuery(0.5));
    EXPECT_FALSE(low.value.has_value());
    auto high = solveForParameter(hswQuery(19.0));
    EXPECT_FALSE(high.value.has_value());
    // endpoint speedups are still reported for diagnostics
    EXPECT_GT(high.speedupAtHi, high.speedupAtLo);
}

TEST(SolveFor, PinnedParameterIsDetectedAsUnattainable)
{
    // Dragon (mods 1+4) pins h_sw, so any target away from the pinned
    // speedup is correctly reported unattainable with equal endpoint
    // diagnostics.
    auto q = hswQuery(7.0);
    q.protocol = *findProtocol("Dragon");
    auto r = solveForParameter(q);
    EXPECT_DOUBLE_EQ(r.speedupAtLo, r.speedupAtHi);
    if (std::abs(r.speedupAtLo - 7.0) > 1e-9) {
        EXPECT_FALSE(r.value.has_value());
    }
}

TEST(SolveFor, WorksOnDecreasingResponses)
{
    // rep_p hurts speedup: response decreases over [0, 0.9].
    SolveForQuery q;
    q.base = presets::appendixA(SharingLevel::FivePercent);
    q.protocol = ProtocolConfig::writeOnce();
    q.n = 10;
    q.paramName = "rep_p";
    q.set = findParamSetter("rep_p");
    q.lo = 0.0;
    q.hi = 0.9;
    Analyzer analyzer;
    // aim between the endpoint speedups
    auto probe = solveForParameter(q, analyzer);
    double target =
        0.5 * (probe.speedupAtLo + probe.speedupAtHi);
    q.targetSpeedup = target;
    auto r = solveForParameter(q, analyzer);
    ASSERT_TRUE(r.value.has_value());
    WorkloadParams wl = q.base;
    q.set(wl, *r.value);
    EXPECT_NEAR(analyzer.analyze(q.protocol, wl, q.n).speedup, target,
                0.01);
}

TEST(SolveFor, EndpointTargetsResolve)
{
    auto q = hswQuery(0.0);
    auto probe = solveForParameter(q);
    q.targetSpeedup = probe.speedupAtLo;
    auto r = solveForParameter(q);
    ASSERT_TRUE(r.value.has_value());
    EXPECT_NEAR(*r.value, q.lo, 0.01);
}

TEST(SolveFor, MalformedQueriesThrow)
{
    auto q = hswQuery(5.0);
    q.set = nullptr;
    try {
        solveForParameter(q);
        FAIL() << "expected SolveException";
    } catch (const SolveException &e) {
        EXPECT_EQ(e.error().code, SolveErrorCode::InvalidArgument);
        EXPECT_NE(std::string(e.what()).find("setter"),
                  std::string::npos);
    }
    q = hswQuery(5.0);
    q.lo = 0.9;
    q.hi = 0.1;
    EXPECT_THROW(solveForParameter(q), SolveException);
    q = hswQuery(5.0);
    q.n = 0;
    EXPECT_THROW(solveForParameter(q), SolveException);
    q = hswQuery(5.0);
    q.tolerance = 0.0;
    EXPECT_THROW(solveForParameter(q), SolveException);
}

TEST(SolveFor, OutOfRangeParameterThrowsInsteadOfExiting)
{
    // The header promises SolveException on a malformed query; a
    // bracket that leaves the probability range is one, and must not
    // end the process.
    auto q = hswQuery(5.0);
    q.lo = -0.5;
    try {
        solveForParameter(q);
        FAIL() << "expected SolveException";
    } catch (const SolveException &e) {
        EXPECT_EQ(e.error().code, SolveErrorCode::InvalidArgument);
        EXPECT_NE(std::string(e.what()).find("hSw = -0.5"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace snoop
