/**
 * Accuracy of the deterministic 2^x (mvaExp2, mva/kernel.hh) against
 * libm exp2 over its documented domain: relative error below 1e-15 on
 * (-1022, 1023], exact powers of two at the integers, flush to zero
 * at and below -1022, and NaN propagation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "mva/kernel.hh"

namespace snoop {
namespace {

TEST(MvaExp2, RelativeErrorBelow1e15AcrossTheDomain)
{
    // 2^21 points over (-1022, 1023]: the step is not a dyadic
    // fraction, so the points land on every part of the reduced
    // argument r in [-0.5, 0.5], not just a few.
    constexpr long kPoints = 1L << 21;
    const double lo = -1022.0, hi = 1023.0;
    const double step = (hi - lo) / kPoints;
    double worst = 0.0, worst_x = 0.0;
    for (long i = 1; i <= kPoints; ++i) {
        double x = i == kPoints ? hi : lo + step * static_cast<double>(i);
        double want = std::exp2(x);
        double rel = std::fabs(mvaExp2(x) - want) / want;
        if (rel > worst) {
            worst = rel;
            worst_x = x;
        }
    }
    EXPECT_LT(worst, 1e-15) << "worst at x = " << worst_x;
}

TEST(MvaExp2, IntegersArePowersOfTwoExactly)
{
    for (int k = -1021; k <= 1023; ++k)
        EXPECT_EQ(mvaExp2(k), std::ldexp(1.0, k)) << k;
}

TEST(MvaExp2, AtAndBelowMinus1022FlushesToZero)
{
    const double inf = std::numeric_limits<double>::infinity();
    for (double x : {-1022.0, -1022.25, -1022.5, -1023.0, -1074.0,
                     -1100.0, -1e300, -inf})
        EXPECT_EQ(mvaExp2(x), 0.0) << x;
    // Just inside the domain the result is still the normal 2^x.
    double x = std::nextafter(-1022.0, 0.0);
    EXPECT_GT(mvaExp2(x), 0.0);
    EXPECT_LT(std::fabs(mvaExp2(x) - std::exp2(x)) / std::exp2(x), 1e-15);
}

TEST(MvaExp2, NaNPropagates)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(std::isnan(mvaExp2(nan)));
    EXPECT_TRUE(std::isnan(mvaExp2(-nan)));
}

} // namespace
} // namespace snoop
