/** Unit tests for workload/params. */

#include <gtest/gtest.h>

#include "workload/params.hh"

namespace snoop {
namespace {

TEST(SharingLevel, Names)
{
    EXPECT_EQ(to_string(SharingLevel::OnePercent), "1%");
    EXPECT_EQ(to_string(SharingLevel::FivePercent), "5%");
    EXPECT_EQ(to_string(SharingLevel::TwentyPercent), "20%");
}

TEST(Presets, AppendixAStreamMixes)
{
    auto p1 = presets::appendixA(SharingLevel::OnePercent);
    EXPECT_DOUBLE_EQ(p1.pPrivate, 0.99);
    EXPECT_DOUBLE_EQ(p1.pSro, 0.01);
    EXPECT_DOUBLE_EQ(p1.pSw, 0.00);

    auto p5 = presets::appendixA(SharingLevel::FivePercent);
    EXPECT_DOUBLE_EQ(p5.pPrivate, 0.95);
    EXPECT_DOUBLE_EQ(p5.pSro, 0.03);
    EXPECT_DOUBLE_EQ(p5.pSw, 0.02);

    auto p20 = presets::appendixA(SharingLevel::TwentyPercent);
    EXPECT_DOUBLE_EQ(p20.pPrivate, 0.80);
    EXPECT_DOUBLE_EQ(p20.pSro, 0.15);
    EXPECT_DOUBLE_EQ(p20.pSw, 0.05);
}

TEST(Presets, AppendixACommonValues)
{
    for (auto level : kSharingLevels) {
        auto p = presets::appendixA(level);
        EXPECT_DOUBLE_EQ(p.tau, 2.5);
        EXPECT_DOUBLE_EQ(p.hPrivate, 0.95);
        EXPECT_DOUBLE_EQ(p.hSro, 0.95);
        EXPECT_DOUBLE_EQ(p.hSw, 0.5);
        EXPECT_DOUBLE_EQ(p.rPrivate, 0.7);
        EXPECT_DOUBLE_EQ(p.rSw, 0.5);
        EXPECT_DOUBLE_EQ(p.amodPrivate, 0.7);
        EXPECT_DOUBLE_EQ(p.amodSw, 0.3);
        EXPECT_DOUBLE_EQ(p.csupplySro, 0.95);
        EXPECT_DOUBLE_EQ(p.csupplySw, 0.5);
        EXPECT_DOUBLE_EQ(p.wbCsupply, 0.3);
        EXPECT_DOUBLE_EQ(p.repP, 0.2);
        EXPECT_DOUBLE_EQ(p.repSw, 0.5);
    }
}

TEST(Presets, StressTestMatchesSection43)
{
    auto p = presets::stressTest();
    EXPECT_DOUBLE_EQ(p.repP, 0.0);
    EXPECT_DOUBLE_EQ(p.repSw, 0.0);
    EXPECT_DOUBLE_EQ(p.amodSw, 0.0);
    EXPECT_DOUBLE_EQ(p.csupplySro, 1.0);
    EXPECT_DOUBLE_EQ(p.csupplySw, 1.0);
    EXPECT_DOUBLE_EQ(p.pSw, 0.2);
    EXPECT_DOUBLE_EQ(p.hSw, 0.1);
}

TEST(Presets, ArchibaldBaerRaisesAmod)
{
    auto p = presets::archibaldBaer(SharingLevel::OnePercent);
    EXPECT_DOUBLE_EQ(p.amodPrivate, 0.95);
    // everything else unchanged from Appendix A
    EXPECT_DOUBLE_EQ(p.pPrivate, 0.99);
}

TEST(Adjusted, Mod1RaisesRepP)
{
    auto base = presets::appendixA(SharingLevel::FivePercent);
    auto adj = base.adjustedFor(ProtocolConfig::fromModString("1"));
    EXPECT_NEAR(adj.repP, 0.3, 1e-12);
    EXPECT_DOUBLE_EQ(adj.repSw, 0.5);
}

TEST(Adjusted, Mod2OrMod3RaisesRepSw)
{
    auto base = presets::appendixA(SharingLevel::FivePercent);
    EXPECT_NEAR(base.adjustedFor(ProtocolConfig::fromModString("2")).repSw,
                0.6, 1e-12);
    EXPECT_NEAR(base.adjustedFor(ProtocolConfig::fromModString("3")).repSw,
                0.6, 1e-12);
    EXPECT_NEAR(base.adjustedFor(ProtocolConfig::fromModString("23")).repSw,
                0.7, 1e-12);
}

TEST(Adjusted, Mod1And4RaisesHsw)
{
    auto base = presets::appendixA(SharingLevel::TwentyPercent);
    auto adj = base.adjustedFor(ProtocolConfig::fromModString("14"));
    EXPECT_DOUBLE_EQ(adj.hSw, 0.95);
    // mod4 alone does not change the hit rate
    auto adj4 = base.adjustedFor(ProtocolConfig::fromModString("4"));
    EXPECT_DOUBLE_EQ(adj4.hSw, 0.5);
}

TEST(Adjusted, ScalesProportionallyFromCustomBase)
{
    auto p = presets::stressTest(); // repP = repSw = 0
    auto adj = p.adjustedFor(ProtocolConfig::fromModString("123"));
    EXPECT_DOUBLE_EQ(adj.repP, 0.0);
    EXPECT_DOUBLE_EQ(adj.repSw, 0.0);
}

TEST(Adjusted, CapsAtOne)
{
    WorkloadParams p = presets::appendixA(SharingLevel::FivePercent);
    p.repSw = 0.9;
    auto adj = p.adjustedFor(ProtocolConfig::fromModString("23"));
    EXPECT_DOUBLE_EQ(adj.repSw, 1.0);
}

/** The check() error text of @p p; empty when it passes. */
std::string
checkMessage(const WorkloadParams &p)
{
    auto ok = p.check();
    return ok ? std::string() : ok.error().describe();
}

TEST(Check, RejectsBadStreamSum)
{
    WorkloadParams p = presets::appendixA(SharingLevel::FivePercent);
    p.pSw = 0.5;
    EXPECT_NE(checkMessage(p).find("sum to"), std::string::npos);
}

TEST(Check, RejectsOutOfRangeProbability)
{
    WorkloadParams p = presets::appendixA(SharingLevel::FivePercent);
    p.hSw = 1.5;
    EXPECT_NE(checkMessage(p).find("hSw"), std::string::npos);
}

TEST(Check, RejectsNegativeTau)
{
    WorkloadParams p = presets::appendixA(SharingLevel::FivePercent);
    p.tau = -1.0;
    EXPECT_NE(checkMessage(p).find("tau"), std::string::npos);
}

} // namespace
} // namespace snoop
