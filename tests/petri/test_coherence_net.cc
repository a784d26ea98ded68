/**
 * Tests for the bus-contention Petri net and its agreement with the
 * MVA model - the small-N detailed-baseline validation of the paper's
 * methodology (Section 4.2), with the net in the GTPN's role.
 */

#include <gtest/gtest.h>

#include "mva/solver.hh"
#include "petri/coherence_net.hh"

namespace snoop {
namespace {

CoherenceNetParams
fromDerived(const DerivedInputs &d, unsigned n)
{
    CoherenceNetParams p;
    p.numProcessors = n;
    p.execTime = d.tau + d.timing.tSupply;
    p.pLocal = d.pLocal;
    p.pBc = d.pBc;
    p.pRr = d.pRr;
    p.tWrite = d.timing.tWrite;
    p.tRead = d.tRead;
    return p;
}

TEST(CoherenceNet, SingleProcessorSpeedupMatchesMvaClosely)
{
    auto d = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::writeOnce());
    auto cn = makeCoherenceNet(fromDerived(d, 1));
    auto a = cn.net.analyze();
    MvaSolver solver;
    double mva = solver.solve(d, 1).speedup;
    // No contention at N=1: both models reduce to the same cycle
    // structure; exponential vs deterministic timing does not change
    // the mean.
    EXPECT_NEAR(coherenceNetSpeedup(cn, a), mva, mva * 0.01);
}

TEST(CoherenceNet, TracksMvaForSmallSystems)
{
    // The net has exponential firing times where the MVA assumes
    // deterministic bus access (and the MVA additionally models memory
    // and cache interference), so agreement is looser than the
    // simulator's: the models must track each other within ~15%.
    auto d = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::writeOnce());
    MvaSolver solver;
    for (unsigned n : {2u, 3u, 4u}) {
        auto cn = makeCoherenceNet(fromDerived(d, n));
        auto a = cn.net.analyze();
        double net_speedup = coherenceNetSpeedup(cn, a);
        double mva_speedup = solver.solve(d, n).speedup;
        EXPECT_NEAR(net_speedup, mva_speedup, mva_speedup * 0.15)
            << "N=" << n;
    }
}

TEST(CoherenceNet, BusUtilizationConsistentWithMva)
{
    auto d = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::writeOnce());
    MvaSolver solver;
    auto cn = makeCoherenceNet(fromDerived(d, 4));
    auto a = cn.net.analyze();
    double net_util = coherenceNetBusUtilization(cn, a);
    double mva_util = solver.solve(d, 4).busUtil;
    EXPECT_NEAR(net_util, mva_util, 0.08);
}

TEST(CoherenceNet, StateSpaceExplodesWithProcessors)
{
    // The motivation for the MVA model (Section 3.2): detailed-model
    // cost grows exponentially in N while the MVA cost is flat.
    auto d = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::writeOnce());
    size_t prev = 0;
    for (unsigned n : {1u, 2u, 3u, 4u, 5u}) {
        auto cn = makeCoherenceNet(fromDerived(d, n));
        size_t states = cn.net.countReachableStates();
        EXPECT_GT(states, prev) << "N=" << n;
        if (n >= 2) {
            // at least geometric growth (factor > 2 per processor)
            EXPECT_GE(states, prev * 2) << "N=" << n;
        }
        prev = states;
    }
    EXPECT_GE(prev, 200u); // N=5 already needs hundreds of markings
}

TEST(CoherenceNet, ZeroBroadcastWorkloadOmitsBroadcastPath)
{
    CoherenceNetParams p;
    p.numProcessors = 2;
    p.pLocal = 0.9;
    p.pBc = 0.0;
    p.pRr = 0.1;
    auto cn = makeCoherenceNet(p);
    auto a = cn.net.analyze();
    for (auto t : cn.busBc)
        EXPECT_DOUBLE_EQ(a.throughput[t], 0.0);
    EXPECT_GT(a.throughput[cn.busRr[0]], 0.0);
}

TEST(CoherenceNet, SpeedupBoundedByN)
{
    auto d = DerivedInputs::compute(
        presets::appendixA(SharingLevel::TwentyPercent),
        ProtocolConfig::fromModString("1"));
    for (unsigned n : {1u, 2u, 3u}) {
        auto cn = makeCoherenceNet(fromDerived(d, n));
        auto a = cn.net.analyze();
        double s = coherenceNetSpeedup(cn, a);
        EXPECT_GT(s, 0.0);
        EXPECT_LE(s, static_cast<double>(n));
    }
}

TEST(CoherenceNet, CheckNamesTheBadParameter)
{
    EXPECT_TRUE(CoherenceNetParams{}.check().ok());
    auto describe = [](const CoherenceNetParams &p) {
        auto ok = p.check();
        EXPECT_FALSE(ok.ok());
        EXPECT_EQ(ok.error().code, SolveErrorCode::InvalidArgument);
        return ok ? std::string() : ok.error().describe();
    };
    CoherenceNetParams sum;
    sum.pLocal = 0.5;
    EXPECT_NE(describe(sum).find("sum to 1 (got 0.64)"), std::string::npos);
    CoherenceNetParams none;
    none.numProcessors = 0;
    EXPECT_NE(describe(none).find("at least one processor"),
              std::string::npos);
    CoherenceNetParams time;
    time.tRead = 0.0;
    EXPECT_NE(describe(time).find("times must be positive"),
              std::string::npos);
    CoherenceNetParams neg;
    neg.pBc = -0.1;
    neg.pLocal = 1.04;
    EXPECT_NE(describe(neg).find("non-negative"), std::string::npos);
}

TEST(CoherenceNetDeath, BadParams)
{
    CoherenceNetParams p;
    p.pLocal = 0.5; // sums to 0.5 + 0.08 + 0.06 != 1
    EXPECT_EXIT(makeCoherenceNet(p), testing::ExitedWithCode(1),
                "sum to 1");
    CoherenceNetParams q;
    q.numProcessors = 0;
    EXPECT_EXIT(makeCoherenceNet(q), testing::ExitedWithCode(1),
                "at least one");
}

} // namespace
} // namespace snoop
