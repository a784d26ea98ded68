/** Tests for the two-level bus-hierarchy extension. */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mva/hierarchical.hh"
#include "observe/trace.hh"
#include "util/fault.hh"

namespace snoop {
namespace {

HierarchicalConfig
base()
{
    HierarchicalConfig c;
    c.clusters = 4;
    c.processorsPerCluster = 4;
    c.pLocal = 0.92;
    c.tLocalBus = 5.0;
    c.pRemote = 0.3;
    c.tGlobalBus = 9.0;
    return c;
}

TEST(Hierarchical, SolvesAndBounds)
{
    auto r = solveHierarchical(base());
    EXPECT_TRUE(r.converged);
    EXPECT_GT(r.speedup, 0.0);
    EXPECT_LE(r.speedup, 16.0);
    EXPECT_GE(r.wLocalBus, 0.0);
    EXPECT_GE(r.wGlobalBus, 0.0);
    EXPECT_LE(r.localBusUtil, 1.0);
    EXPECT_LE(r.globalBusUtil, 1.0);
}

TEST(Hierarchical, SingleProcessorNoContention)
{
    auto c = base();
    c.clusters = 1;
    c.processorsPerCluster = 1;
    auto r = solveHierarchical(c);
    EXPECT_DOUBLE_EQ(r.wLocalBus, 0.0);
    EXPECT_DOUBLE_EQ(r.wGlobalBus, 0.0);
    double p_bus = 1.0 - c.pLocal;
    double expected_r = c.tau + c.tSupply +
        p_bus * (c.tLocalBus + c.pRemote * c.tGlobalBus);
    EXPECT_NEAR(r.responseTime, expected_r, 1e-9);
}

TEST(Hierarchical, MoreClustersRelieveLocalBuses)
{
    // Same total N = 16, different partitioning: more clusters mean
    // fewer processors per local bus, so local contention drops.
    auto flat = base();
    flat.clusters = 1;
    flat.processorsPerCluster = 16;
    auto split = base();
    split.clusters = 8;
    split.processorsPerCluster = 2;
    auto r_flat = solveHierarchical(flat);
    auto r_split = solveHierarchical(split);
    EXPECT_LT(r_split.wLocalBus, r_flat.wLocalBus);
    EXPECT_GT(r_split.speedup, r_flat.speedup);
}

TEST(Hierarchical, RemoteTrafficMovesTheBottleneck)
{
    auto local_heavy = base();
    local_heavy.pRemote = 0.05;
    auto remote_heavy = base();
    remote_heavy.pRemote = 0.8;
    auto rl = solveHierarchical(local_heavy);
    auto rr = solveHierarchical(remote_heavy);
    EXPECT_GT(rl.speedup, rr.speedup);
    EXPECT_GT(rr.globalBusUtil, rl.globalBusUtil);
}

TEST(Hierarchical, SpeedupGrowsWithClustersAtFixedClusterSize)
{
    double prev = 0.0;
    for (unsigned clusters : {1u, 2u, 4u, 8u}) {
        auto c = base();
        c.clusters = clusters;
        auto r = solveHierarchical(c);
        EXPECT_GT(r.speedup, prev * 0.999) << "C=" << clusters;
        prev = r.speedup;
    }
}

TEST(Hierarchical, GlobalBusEventuallySaturates)
{
    auto c = base();
    c.clusters = 64;
    c.processorsPerCluster = 4;
    auto r = solveHierarchical(c);
    EXPECT_TRUE(r.converged);
    EXPECT_GT(r.globalBusUtil, 0.95);
    // speedup bounded by the global-bus saturation limit
    double p_bus = 1.0 - c.pLocal;
    double limit = (c.tau + c.tSupply) /
        (p_bus * c.pRemote * c.tGlobalBus);
    EXPECT_LE(r.speedup, limit * 1.02);
}

TEST(Hierarchical, ZeroRemoteReducesToIndependentClusters)
{
    // With pRemote = 0 clusters do not interact: doubling the cluster
    // count exactly doubles speedup.
    auto c = base();
    c.pRemote = 0.0;
    c.clusters = 2;
    auto r2 = solveHierarchical(c);
    c.clusters = 4;
    auto r4 = solveHierarchical(c);
    EXPECT_NEAR(r4.speedup, 2.0 * r2.speedup, 1e-6);
}

TEST(Hierarchical, FromFlatInputsProducesValidConfig)
{
    auto d = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::writeOnce());
    auto c = hierarchicalFromFlat(d, 4, 4, 0.5);
    c.validate();
    EXPECT_EQ(c.totalProcessors(), 16u);
    EXPECT_NEAR(c.pLocal, d.pLocal, 1e-12);
    EXPECT_GT(c.pRemote, 0.0);
    EXPECT_LT(c.pRemote, 1.0);
    auto r = solveHierarchical(c);
    EXPECT_TRUE(r.converged);
    EXPECT_GT(r.speedup, 1.0);
}

TEST(Hierarchical, ClusterCachingHelps)
{
    auto d = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::writeOnce());
    auto none = solveHierarchical(hierarchicalFromFlat(d, 4, 4, 0.0));
    auto half = solveHierarchical(hierarchicalFromFlat(d, 4, 4, 0.5));
    EXPECT_GT(half.speedup, none.speedup);
}

TEST(Hierarchical, Mod3SuppressesGlobalBroadcastTraffic)
{
    auto wo = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::writeOnce());
    auto m3 = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::fromModString("3"));
    auto c_wo = hierarchicalFromFlat(wo, 4, 4, 0.0);
    auto c_m3 = hierarchicalFromFlat(m3, 4, 4, 0.0);
    // Invalidations stay local, so the remote fraction drops.
    EXPECT_LT(c_m3.pRemote * (1.0 - c_m3.pLocal),
              c_wo.pRemote * (1.0 - c_wo.pLocal) + 1e-12);
}

TEST(Hierarchical, BadConfigThrows)
{
    HierarchicalConfig c;
    c.clusters = 0;
    try {
        solveHierarchical(c);
        FAIL() << "expected SolveException";
    } catch (const SolveException &e) {
        EXPECT_EQ(e.error().code, SolveErrorCode::InvalidArgument);
        EXPECT_NE(std::string(e.what()).find("at least one"),
                  std::string::npos);
    }
    HierarchicalConfig c2;
    c2.pRemote = 1.5;
    EXPECT_THROW(solveHierarchical(c2), SolveException);
    auto d = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::writeOnce());
    EXPECT_THROW(hierarchicalFromFlat(d, 2, 2, 2.0), SolveException);
}

TEST(Hierarchical, BadOptionsThrowNamingTheField)
{
    // Damping 0 once returned speedup 13.76 marked converged (9.58
    // at damping 1); the budgets were silently ignored. All are
    // rejected now.
    auto d = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::writeOnce());
    const HierarchicalConfig cfg = hierarchicalFromFlat(d, 4, 4, 0.5);
    std::vector<std::pair<MvaOptions, std::string>> cases(3);
    cases[0].first.damping = 0.0;
    cases[0].second = "damping";
    cases[1].first.timeBudget = 1.0;
    cases[1].second = "timeBudget";
    cases[2].first.iterationBudget = 3;
    cases[2].second = "iterationBudget";
    for (const auto &[opts, field] : cases) {
        try {
            solveHierarchical(cfg, opts);
            ADD_FAILURE() << field << ": expected SolveException";
        } catch (const SolveException &e) {
            EXPECT_EQ(e.error().code, SolveErrorCode::InvalidArgument);
            EXPECT_EQ(e.error().site, "solveHierarchical");
            EXPECT_NE(e.error().message.find(field), std::string::npos)
                << e.what();
        }
    }
}

/** Fault tests arm fault sites and Phase tracing; both start and end
 * cleared. */
class HierarchicalFaults : public testing::Test
{
  protected:
    void SetUp() override
    {
        clearFaultSpecs();
        observeReset();
        setTrace(TraceLevel::Phase);
    }
    void TearDown() override
    {
        clearFaultSpecs();
        observeReset();
    }

    /** (damping, converged) of each traced attempt, in order. */
    static std::vector<std::pair<double, bool>> tracedAttempts()
    {
        std::vector<std::pair<double, bool>> out;
        for (const TraceEvent &e : snapshotTraceEvents()) {
            if (e.name != "mva.hierarchical.attempt")
                continue;
            EXPECT_EQ(e.key, out.size());
            out.emplace_back(
                std::stod(e.args.substr(e.args.find(':') + 1)),
                e.args.find("\"converged\":true") != std::string::npos);
        }
        return out;
    }
};

TEST_F(HierarchicalFaults, NonconvergeIsOneAttemptAndAFatalError)
{
    ASSERT_TRUE(setFaultSpecs("mva.nonconverge").ok());
    // Fatal is the default: default-constructed options throw too.
    MvaOptions fatal;
    fatal.onNonConvergence = NonConvergencePolicy::Fatal;
    for (const MvaOptions &opts : {MvaOptions{}, fatal}) {
        clearTrace();
        setTrace(TraceLevel::Phase);
        try {
            solveHierarchical(base(), opts);
            FAIL() << "expected SolveException";
        } catch (const SolveException &e) {
            EXPECT_EQ(e.error().code, SolveErrorCode::NonConvergence);
            EXPECT_EQ(e.error().site, "solveHierarchical");
            EXPECT_NE(e.error().message.find("(C=4, P=4)"),
                      std::string::npos);
        }
        // One attempt at the configured damping, and no retry.
        auto attempts = tracedAttempts();
        ASSERT_EQ(attempts.size(), 1u);
        EXPECT_DOUBLE_EQ(attempts[0].first, 0.5);
        EXPECT_FALSE(attempts[0].second);
    }
}

} // namespace
} // namespace snoop
