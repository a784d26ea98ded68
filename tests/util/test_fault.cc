/** Unit tests for the util/fault injection harness. */

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "util/fault.hh"
#include "util/parallel.hh"

namespace snoop {
namespace {

/** Every test starts and ends disarmed (the harness is process-wide
 *  state). */
class Fault : public testing::Test
{
  protected:
    void SetUp() override { clearFaultSpecs(); }
    void TearDown() override { clearFaultSpecs(); }
};

TEST_F(Fault, DisarmedByDefault)
{
    EXPECT_TRUE(activeFaultSpecs().empty());
    EXPECT_FALSE(faultArmed("sweep.cell"));
    EXPECT_FALSE(faultFires("sweep.cell", 0));
}

TEST_F(Fault, SingleSiteArmsExactlyThatSite)
{
    ASSERT_TRUE(setFaultSpecs("mva.nonconverge").ok());
    EXPECT_TRUE(faultArmed("mva.nonconverge"));
    EXPECT_FALSE(faultArmed("mva.nan"));
    EXPECT_FALSE(faultFires("sweep.cell", 3));
}

TEST_F(Fault, KeyedSiteSamplesByPeriod)
{
    ASSERT_TRUE(setFaultSpecs("sweep.cell:every=3").ok());
    EXPECT_TRUE(faultFires("sweep.cell", 0));
    EXPECT_FALSE(faultFires("sweep.cell", 1));
    EXPECT_FALSE(faultFires("sweep.cell", 2));
    EXPECT_TRUE(faultFires("sweep.cell", 3));
    EXPECT_TRUE(faultFires("sweep.cell", 300));
}

TEST_F(Fault, DefaultPeriodFiresOnEveryKey)
{
    ASSERT_TRUE(setFaultSpecs("sim.replication").ok());
    for (uint64_t key : {0ull, 1ull, 7ull, 1000ull})
        EXPECT_TRUE(faultFires("sim.replication", key)) << key;
}

TEST_F(Fault, MultipleSitesParse)
{
    ASSERT_TRUE(
        setFaultSpecs(" sweep.cell:every=2 , io.commit ").ok());
    auto specs = activeFaultSpecs();
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].site, "sweep.cell");
    EXPECT_EQ(specs[0].every, 2u);
    EXPECT_EQ(specs[1].site, "io.commit");
    EXPECT_EQ(specs[1].every, 1u);
    EXPECT_TRUE(faultArmed("io.commit"));
    EXPECT_FALSE(faultFires("sweep.cell", 1));
}

TEST_F(Fault, EmptySpecDisarms)
{
    ASSERT_TRUE(setFaultSpecs("sweep.cell").ok());
    ASSERT_TRUE(setFaultSpecs("").ok());
    EXPECT_TRUE(activeFaultSpecs().empty());
    EXPECT_FALSE(faultArmed("sweep.cell"));
}

TEST_F(Fault, MalformedSpecIsRejectedWithoutInstalling)
{
    ASSERT_TRUE(setFaultSpecs("sweep.cell:every=2").ok());
    for (const char *bad :
         {"sweep.cell:every=0", "sweep.cell:every=x",
          "sweep.cell:often=2", ",", "a,,b"}) {
        auto r = setFaultSpecs(bad);
        ASSERT_FALSE(r.ok()) << bad;
        EXPECT_EQ(r.error().code, SolveErrorCode::InvalidArgument);
    }
    // The previous good configuration survived every failed install.
    auto specs = activeFaultSpecs();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].site, "sweep.cell");
    EXPECT_EQ(specs[0].every, 2u);
}

TEST_F(Fault, ReloadsFromEnvironment)
{
    ASSERT_EQ(setenv("SNOOP_FAULT", "validate.point:every=4", 1), 0);
    reloadFaultSpecsFromEnv();
    EXPECT_TRUE(faultFires("validate.point", 8));
    EXPECT_FALSE(faultFires("validate.point", 9));
    ASSERT_EQ(unsetenv("SNOOP_FAULT"), 0);
    reloadFaultSpecsFromEnv();
    EXPECT_TRUE(activeFaultSpecs().empty());
}

TEST_F(Fault, ProgrammaticConfigOverridesEnvironment)
{
    ASSERT_EQ(setenv("SNOOP_FAULT", "mva.nan", 1), 0);
    // A programmatic install after env consumption wins; the lazy env
    // load must never clobber it.
    ASSERT_TRUE(setFaultSpecs("io.commit").ok());
    EXPECT_FALSE(faultArmed("mva.nan"));
    EXPECT_TRUE(faultArmed("io.commit"));
    ASSERT_EQ(unsetenv("SNOOP_FAULT"), 0);
}

TEST_F(Fault, InjectedFaultCarriesSiteAndKey)
{
    auto e = injectedFault("sweep.cell", 12);
    EXPECT_EQ(e.code, SolveErrorCode::InjectedFault);
    EXPECT_EQ(e.site, "sweep.cell");
    EXPECT_NE(e.message.find("12"), std::string::npos);
}

TEST_F(Fault, WorkersSeeTheSerialAnswerPerKey)
{
    // Workers query the Guarded spec list concurrently; each key's
    // answer must match the one a serial query gives.
    ASSERT_TRUE(setFaultSpecs("sweep.cell:every=3,mva.nan").ok());
    constexpr size_t kKeys = 4096;
    std::vector<char> serial(kKeys), parallel(kKeys);
    for (size_t k = 0; k < kKeys; ++k)
        serial[k] = faultFires("sweep.cell", k);
    setParallelJobs(4);
    parallelFor(kKeys, [&](size_t k) {
        parallel[k] = faultFires("sweep.cell", k);
    });
    setParallelJobs(0);
    EXPECT_EQ(parallel, serial);
    EXPECT_TRUE(serial[0] && !serial[1] && serial[3]);
}

TEST(FaultDeath, MalformedEnvironmentIsFatal)
{
    // SNOOP_FAULT is user input at the process boundary: a typo must
    // fail loudly, not silently disarm.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_EQ(setenv("SNOOP_FAULT", "sweep.cell:every=banana", 1), 0);
    EXPECT_EXIT(reloadFaultSpecsFromEnv(), testing::ExitedWithCode(1),
                "every=N");
    ASSERT_EQ(unsetenv("SNOOP_FAULT"), 0);
    reloadFaultSpecsFromEnv();
}

} // namespace
} // namespace snoop
