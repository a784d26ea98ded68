/** Unit tests for workload/derived: the Section 2.3 model inputs. */

#include <gtest/gtest.h>

#include "workload/derived.hh"

namespace snoop {
namespace {

DerivedInputs
derive(SharingLevel level, const std::string &mods)
{
    return DerivedInputs::compute(presets::appendixA(level),
                                  ProtocolConfig::fromModString(mods));
}

// Every (sharing level, mod combination) pair must satisfy the basic
// structural invariants.
class DerivedSweep
    : public testing::TestWithParam<std::tuple<SharingLevel, unsigned>>
{
  protected:
    DerivedInputs
    inputs() const
    {
        auto [level, idx] = GetParam();
        return DerivedInputs::compute(presets::appendixA(level),
                                      ProtocolConfig::fromIndex(idx));
    }
};

TEST_P(DerivedSweep, RequestTypesPartitionUnity)
{
    auto d = inputs();
    EXPECT_NEAR(d.pLocal + d.pBc + d.pRr, 1.0, 1e-9);
    EXPECT_GE(d.pLocal, 0.0);
    EXPECT_GE(d.pBc, 0.0);
    EXPECT_GE(d.pRr, 0.0);
}

TEST_P(DerivedSweep, ConditionalProbabilitiesInRange)
{
    auto d = inputs();
    EXPECT_GE(d.pCsupwbGivenRr, 0.0);
    EXPECT_LE(d.pCsupwbGivenRr, 1.0);
    EXPECT_GE(d.pReqwbGivenRr, 0.0);
    EXPECT_LE(d.pReqwbGivenRr, 1.0);
    EXPECT_GE(d.pA, 0.0);
    EXPECT_LE(d.pA, 1.0);
    EXPECT_GE(d.pB, 0.0);
    EXPECT_LE(d.pB, 1.0);
    EXPECT_LE(d.pA + d.pB, 1.0);
    EXPECT_GE(d.csupFrac, 0.0);
    EXPECT_LE(d.csupFrac, 1.0);
}

TEST_P(DerivedSweep, ReadTimePositiveWhenMissesExist)
{
    auto d = inputs();
    if (d.pRr > 0.0) {
        EXPECT_GT(d.tRead, 0.0);
        // t_read is bounded by worst case: flush + memory read + victim
        // write-back.
        EXPECT_LE(d.tRead, d.timing.tWriteBack + d.timing.tReadMem +
                      d.timing.tWriteBack + 1e-9);
    }
}

TEST_P(DerivedSweep, MemFactorNonNegative)
{
    auto d = inputs();
    EXPECT_GE(d.memFactor, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllLevelsAllMods, DerivedSweep,
    testing::Combine(testing::ValuesIn(kSharingLevels),
                     testing::Range(0u, 16u)));

TEST(Derived, WriteOnceFivePercentKnownValues)
{
    auto d = derive(SharingLevel::FivePercent, "");
    EXPECT_NEAR(d.pLocal, 0.856275, 1e-9);
    EXPECT_NEAR(d.pBc, 0.084725, 1e-9);
    EXPECT_NEAR(d.pRr, 0.059, 1e-9);
    // p_csupwb|rr = (0.01 * 0.5 * 0.3) / 0.059
    EXPECT_NEAR(d.pCsupwbGivenRr, 0.0015 / 0.059, 1e-9);
    // p_reqwb|rr = (0.0475*0.2 + 0.01*0.5) / 0.059
    EXPECT_NEAR(d.pReqwbGivenRr, 0.0145 / 0.059, 1e-9);
}

TEST(Derived, Mod1MovesPrivateBroadcastsToLocal)
{
    auto base = derive(SharingLevel::FivePercent, "");
    auto m1 = derive(SharingLevel::FivePercent, "1");
    // sw write-hit broadcasts remain; private ones become local
    EXPECT_NEAR(m1.pBc, 0.0035, 1e-9);
    EXPECT_NEAR(m1.pLocal, base.pLocal + 0.081225, 1e-9);
    // rep_p rises, so t_read grows slightly
    EXPECT_GT(m1.tRead, base.tRead);
}

TEST(Derived, Mod2RemovesCacheSupplyMemoryUpdate)
{
    auto base = derive(SharingLevel::FivePercent, "");
    auto m2 = derive(SharingLevel::FivePercent, "2");
    // the dirty-supplier flush disappears from the memory factor
    EXPECT_LT(m2.memFactor,
              base.memFactor + 1e-12);
    // and the direct supply shortens the dirty-supplier read
    double base_sup_dirty_cost = base.timing.tWriteBack +
        base.timing.tReadMem;
    double m2_sup_dirty_cost = m2.timing.tReadCache;
    EXPECT_LT(m2_sup_dirty_cost, base_sup_dirty_cost);
}

TEST(Derived, Mod3RemovesBroadcastMemoryTraffic)
{
    auto base = derive(SharingLevel::FivePercent, "");
    auto m3 = derive(SharingLevel::FivePercent, "3");
    // invalidations do not touch memory: broadcast term drops out
    EXPECT_LT(m3.memFactor, base.memFactor);
    // p_bc itself is unchanged in structure (same events broadcast)
    EXPECT_NEAR(m3.pBc, base.pBc, 1e-9);
}

TEST(Derived, Mod4BroadcastsAllNonExclusiveSwWrites)
{
    auto base = derive(SharingLevel::TwentyPercent, "");
    auto m4 = derive(SharingLevel::TwentyPercent, "4");
    // all sw write hits broadcast (not just unmodified ones)
    EXPECT_GT(m4.pBc, base.pBc);
}

TEST(Derived, Mod14RaisesHitRateLoweringMissTraffic)
{
    auto m1 = derive(SharingLevel::TwentyPercent, "1");
    auto m14 = derive(SharingLevel::TwentyPercent, "14");
    EXPECT_LT(m14.pRr, m1.pRr);
    EXPECT_DOUBLE_EQ(m14.effective.hSw, 0.95);
}

TEST(Derived, Mod34BroadcastsWithoutMemoryUpdate)
{
    auto d = derive(SharingLevel::FivePercent, "34");
    EXPECT_FALSE(d.protocol.broadcastUpdatesMemory());
    EXPECT_TRUE(d.protocol.broadcasterTakesOwnership());
    // memory factor excludes the broadcast term
    auto d4 = derive(SharingLevel::FivePercent, "4");
    EXPECT_LT(d.memFactor, d4.memFactor);
}

TEST(Derived, OnePercentHasNoCacheSupplyWriteBacks)
{
    auto d = derive(SharingLevel::OnePercent, "");
    EXPECT_DOUBLE_EQ(d.pCsupwbGivenRr, 0.0);
    EXPECT_DOUBLE_EQ(d.pB, 0.0);
}

TEST(Derived, AllHitsWorkloadIsFullyLocal)
{
    WorkloadParams p = presets::appendixA(SharingLevel::FivePercent);
    p.hPrivate = p.hSro = p.hSw = 1.0;
    p.amodPrivate = p.amodSw = 1.0;
    auto d = DerivedInputs::compute(p, ProtocolConfig::writeOnce());
    EXPECT_NEAR(d.pLocal, 1.0, 1e-12);
    EXPECT_NEAR(d.pBc, 0.0, 1e-12);
    EXPECT_NEAR(d.pRr, 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(d.tRead, 0.0);
}

TEST(Derived, TimingValidation)
{
    EXPECT_TRUE(BusTiming{}.check().ok());
    BusTiming t;
    t.tReadMem = -1.0;
    auto times = t.check();
    ASSERT_FALSE(times.ok());
    EXPECT_EQ(times.error().code, SolveErrorCode::InvalidArgument);
    EXPECT_NE(times.error().describe().find("positive"), std::string::npos);
    BusTiming t2;
    t2.numModules = 0;
    auto modules = t2.check();
    ASSERT_FALSE(modules.ok());
    EXPECT_NE(modules.error().describe().find("numModules"),
              std::string::npos);
}

TEST(Derived, ComputeRequiresValidTiming)
{
    // compute() states the timing check as a precondition: exit 1
    // with the check's describe() text.
    BusTiming t;
    t.numModules = 0;
    EXPECT_EXIT(DerivedInputs::compute(presets::appendixA(
                                           SharingLevel::FivePercent),
                                       ProtocolConfig::writeOnce(), t),
                testing::ExitedWithCode(1),
                "requirement .*timing.check\\(\\).*\\[invalid-argument\\] "
                "BusTiming: numModules = 0");
}

TEST(Derived, StressPresetHasMaximalSnoopExposure)
{
    auto d = DerivedInputs::compute(presets::stressTest(),
                                    ProtocolConfig::writeOnce());
    // csupply = 1 means every shared miss is supplied by a cache
    EXPECT_NEAR(d.csupFrac, 1.0, 1e-12);
    // rep = 0 means no victim write-backs
    EXPECT_DOUBLE_EQ(d.pReqwbGivenRr, 0.0);
}

} // namespace
} // namespace snoop
