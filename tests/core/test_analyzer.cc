/** Unit tests for the Analyzer facade. */

#include <gtest/gtest.h>

#include <cmath>

#include "core/analyzer.hh"
#include "util/fault.hh"

namespace snoop {
namespace {

TEST(Analyzer, AnalyzeByCatalogName)
{
    Analyzer a;
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    auto r = a.analyze("Illinois", wl, 10);
    EXPECT_EQ(r.numProcessors, 10u);
    EXPECT_TRUE(r.inputs.protocol.mod1);
    EXPECT_TRUE(r.inputs.protocol.mod3);
    EXPECT_GT(r.speedup, 0.0);
}

TEST(Analyzer, AnalyzeByModString)
{
    Analyzer a;
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    auto by_name = a.analyze("Berkeley", wl, 8);
    auto by_mods = a.analyze("23", wl, 8);
    EXPECT_DOUBLE_EQ(by_name.speedup, by_mods.speedup);
}

TEST(Analyzer, NameAndConfigAgree)
{
    Analyzer a;
    auto wl = presets::appendixA(SharingLevel::TwentyPercent);
    auto named = a.analyze("Dragon", wl, 12);
    auto cfg = a.analyze(*findProtocol("Dragon"), wl, 12);
    EXPECT_DOUBLE_EQ(named.speedup, cfg.speedup);
}

TEST(Analyzer, SweepReturnsAllSizes)
{
    Analyzer a;
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    auto rs = a.sweep(ProtocolConfig::writeOnce(), wl, {1, 5, 25});
    ASSERT_EQ(rs.size(), 3u);
    EXPECT_EQ(rs[0].numProcessors, 1u);
    EXPECT_EQ(rs[2].numProcessors, 25u);
}

TEST(Analyzer, RankDesignSpaceCoversAll16Sorted)
{
    Analyzer a;
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    auto ranked = a.rankDesignSpace(wl, 16);
    ASSERT_EQ(ranked.size(), 16u);
    for (size_t i = 1; i < ranked.size(); ++i)
        EXPECT_GE(ranked[i - 1].speedup, ranked[i].speedup);
    // all 16 distinct configurations present
    unsigned mask = 0;
    for (const auto &r : ranked)
        mask |= (1u << r.inputs.protocol.index());
    EXPECT_EQ(mask, 0xFFFFu);
}

TEST(Analyzer, DesignSpaceWinnerIncludesMod1)
{
    // Section 4.1: modification 1 is clearly advantageous; the best
    // configuration at a saturated size must include it.
    Analyzer a;
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    auto ranked = a.rankDesignSpace(wl, 20);
    EXPECT_TRUE(ranked.front().inputs.protocol.mod1);
}

TEST(Analyzer, SaturationPointFindsTheKnee)
{
    Analyzer a;
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    unsigned n95 = a.saturationPoint(ProtocolConfig::writeOnce(), wl);
    // Write-Once at 5% saturates around 10-12 processors (Fig 4.1).
    EXPECT_GE(n95, 8u);
    EXPECT_LE(n95, 16u);
    // Utilization at the returned N meets the target; below it doesn't.
    auto at = a.analyze(ProtocolConfig::writeOnce(), wl, n95);
    auto below = a.analyze(ProtocolConfig::writeOnce(), wl, n95 - 1);
    EXPECT_GE(at.busUtil, 0.95);
    EXPECT_LT(below.busUtil, 0.95);
}

TEST(Analyzer, SaturationPointZeroWhenUnreachable)
{
    Analyzer a;
    WorkloadParams wl = presets::appendixA(SharingLevel::FivePercent);
    wl.hPrivate = wl.hSro = wl.hSw = 1.0;
    wl.amodPrivate = wl.amodSw = 1.0;
    EXPECT_EQ(a.saturationPoint(ProtocolConfig::writeOnce(), wl), 0u);
}

TEST(Analyzer, BetterProtocolDeliversMoreAtItsKnee)
{
    // A protocol with less bus demand per request does not necessarily
    // saturate at a larger N (it also cycles faster), but it must
    // deliver more speedup at its own saturation point.
    Analyzer a;
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    unsigned wo_n = a.saturationPoint(ProtocolConfig::writeOnce(), wl);
    unsigned m1_n = a.saturationPoint(ProtocolConfig::fromModString("1"),
                                      wl);
    ASSERT_GT(wo_n, 0u);
    ASSERT_GT(m1_n, 0u);
    double wo_s =
        a.analyze(ProtocolConfig::writeOnce(), wl, wo_n).speedup;
    double m1_s =
        a.analyze(ProtocolConfig::fromModString("1"), wl, m1_n).speedup;
    EXPECT_GT(m1_s, wo_s);
}

TEST(Analyzer, CustomTimingFlowsThrough)
{
    BusTiming slow;
    slow.tReadMem = 30.0;
    Analyzer a({}, slow);
    Analyzer b;
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    EXPECT_LT(a.analyze("WriteOnce", wl, 8).speedup,
              b.analyze("WriteOnce", wl, 8).speedup);
}

TEST(Analyzer, UnknownProtocolIsAnError)
{
    Analyzer a;
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    auto r = a.tryAnalyze("firefly", wl, 4);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, SolveErrorCode::UnknownProtocol);
    EXPECT_NE(r.error().message.find("unknown protocol"),
              std::string::npos);
    // The throwing facade surfaces the same error as an exception.
    EXPECT_THROW(a.analyze("firefly", wl, 4), SolveException);
}

TEST(Analyzer, BadWorkloadIsAnError)
{
    Analyzer a;
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    wl.hSw = 1.5;
    auto r = a.tryAnalyze(ProtocolConfig::writeOnce(), wl, 4);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message.find("hSw"), std::string::npos);
    // The context frame names the enclosing operation.
    ASSERT_FALSE(r.error().context.empty());
    EXPECT_NE(r.error().context.front().find("tryAnalyze"),
              std::string::npos);
}

TEST(Analyzer, BatchKeepsRequestOrderAroundAdmissionErrors)
{
    // Rejected requests sit between, before and after solved ones; each
    // answer lands in its request's slot, bit-identical to tryAnalyze.
    Analyzer a;
    auto good = presets::appendixA(SharingLevel::FivePercent);
    auto bad = good;
    bad.hSw = 1.5;
    const std::vector<AnalysisRequest> requests = {
        {ProtocolConfig::writeOnce(), bad, 4},
        {ProtocolConfig::writeOnce(), good, 4},
        {ProtocolConfig::fromIndex(13), bad, 8},
        {ProtocolConfig::fromIndex(13), good, 8},
        {ProtocolConfig::fromIndex(5), bad, 2},
    };
    auto out = a.tryAnalyzeBatch(requests);
    ASSERT_EQ(out.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        const AnalysisRequest &req = requests[i];
        auto want = a.tryAnalyze(req.protocol, req.workload, req.n);
        ASSERT_EQ(out[i].ok(), want.ok()) << "request " << i;
        if (want.ok()) {
            EXPECT_EQ(out[i].value().speedup, want.value().speedup);
            EXPECT_EQ(out[i].value().numProcessors, req.n);
        } else {
            EXPECT_EQ(out[i].error().describe(), want.error().describe());
        }
    }
    EXPECT_EQ(a.tryAnalyzeBatch({}).size(), 0u);
}

TEST(Analyzer, BadSaturationTargetThrows)
{
    Analyzer a;
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    try {
        a.saturationPoint(ProtocolConfig::writeOnce(), wl, 1.5);
        FAIL() << "expected SolveException";
    } catch (const SolveException &e) {
        EXPECT_EQ(e.error().code, SolveErrorCode::InvalidArgument);
        EXPECT_NE(std::string(e.what()).find("target"),
                  std::string::npos);
    }
}

TEST(Analyzer, NaNSaturationTargetIsRejected)
{
    // A NaN target fails every comparison, so the old
    // `target <= 0 || target > 1` form waved it into the binary
    // search; the !(target > 0 && target <= 1) form must reject it.
    Analyzer a;
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    auto r = a.trySaturationPoint(ProtocolConfig::writeOnce(), wl,
                                  std::nan(""));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message.find("target"), std::string::npos);
}

TEST(Analyzer, ZeroSaturationLimitIsRejected)
{
    Analyzer a;
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    auto r = a.trySaturationPoint(ProtocolConfig::writeOnce(), wl,
                                  0.95, 0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(r.error().message.find("limit"), std::string::npos);
}

TEST(Analyzer, TrySaturationPointMatchesTheThrowingFacade)
{
    Analyzer a;
    auto wl = presets::appendixA(SharingLevel::TwentyPercent);
    auto protocol = ProtocolConfig::writeOnce();
    auto r = a.trySaturationPoint(protocol, wl, 0.9, 256);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.value(), 1u);
    EXPECT_EQ(r.value(), a.saturationPoint(protocol, wl, 0.9, 256));
}

TEST(Analyzer, FaultedSaturationProbeIsOneStructuredError)
{
    // Saturation probes only compare busUtil against the target, so
    // they tolerate non-convergence whatever the analyzer's policy:
    // under mva.nonconverge the knee does not move. A probe that fails
    // outright (a NaN iterate) must come back as an error naming the
    // probe, not abort the process. Both hold under the default
    // options and under an explicit Fatal policy.
    auto wl = presets::appendixA(SharingLevel::FivePercent);
    auto protocol = ProtocolConfig::writeOnce();
    MvaOptions fatal;
    fatal.onNonConvergence = NonConvergencePolicy::Fatal;
    for (const MvaOptions &opts : {MvaOptions{}, fatal}) {
        Analyzer a(opts);
        const unsigned knee = a.saturationPoint(protocol, wl, 0.95, 64);
        ASSERT_TRUE(bool(setFaultSpecs("mva.nonconverge:every=1")));
        auto tolerated = a.trySaturationPoint(protocol, wl, 0.95, 64);
        clearFaultSpecs();
        ASSERT_TRUE(tolerated.ok()) << tolerated.error().describe();
        EXPECT_EQ(tolerated.value(), knee);

        ASSERT_TRUE(bool(setFaultSpecs("mva.nan")));
        auto r = a.trySaturationPoint(protocol, wl, 0.95, 64);
        clearFaultSpecs();
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.error().code, SolveErrorCode::NonFiniteIterate);
        bool probe_frame = false;
        for (const auto &frame : r.error().context)
            probe_frame |= frame.find("probe") != std::string::npos;
        EXPECT_TRUE(probe_frame);
    }
}

} // namespace
} // namespace snoop
