/** Tests for the multi-class (heterogeneous processors) extension. */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mva/kernel.hh"
#include "mva/multiclass.hh"
#include "observe/trace.hh"
#include "sim/prob_sim.hh"
#include "util/fault.hh"

namespace snoop {
namespace {

DerivedInputs
appendixAInputs(SharingLevel level, const std::string &mods,
                double tau = 2.5)
{
    WorkloadParams wl = presets::appendixA(level);
    wl.tau = tau;
    return DerivedInputs::compute(wl,
                                  ProtocolConfig::fromModString(mods));
}

TEST(Multiclass, SingleClassMatchesFlatSolverExactly)
{
    auto inputs = appendixAInputs(SharingLevel::FivePercent, "");
    MvaSolver flat;
    for (unsigned n : {1u, 4u, 10u, 100u}) {
        auto flat_res = flat.solve(inputs, n);
        auto multi = solveMulticlass({{"all", n, inputs}});
        ASSERT_TRUE(multi.converged);
        EXPECT_NEAR(multi.totalSpeedup, flat_res.speedup,
                    flat_res.speedup * 1e-9)
            << "N=" << n;
        EXPECT_NEAR(multi.busUtil, flat_res.busUtil, 1e-9);
        EXPECT_NEAR(multi.memUtil, flat_res.memUtil, 1e-9);
    }
}

TEST(Multiclass, PPrimeBoundaryBranchesMatchFlatSolver)
{
    // Eq. (13)'s boundary branches, on the inputs of the batch
    // solver's PPrimeBoundaryBranchesMatchScalar: p' >= 1 gives
    // n_int = p q, p' = 0 gives n_int = p. A single class must land on
    // the flat solver's fixed point through either branch.
    MvaSolver flat;
    for (bool p_prime_one : {true, false}) {
        SCOPED_TRACE(p_prime_one ? "p' >= 1" : "p' = 0");
        DerivedInputs d =
            appendixAInputs(SharingLevel::TwentyPercent, "");
        d.pA = 0.3;
        d.pB = p_prime_one ? 1.0 : 0.0;
        if (!p_prime_one)
            d.csupFrac = 0.0;
        for (unsigned n : {2u, 4u, 8u, 16u, 64u}) {
            SCOPED_TRACE("N=" + std::to_string(n));
            const double p_prime = mvaStepConstants(d, n).appendixB.pPrime;
            if (p_prime_one)
                ASSERT_GE(p_prime, 1.0);
            else
                ASSERT_EQ(p_prime, 0.0);
            auto flat_res = flat.solve(d, n);
            auto multi = solveMulticlass({{"all", n, d}});
            ASSERT_TRUE(multi.converged);
            ASSERT_GT(flat_res.qBus, 0.0);
            EXPECT_NEAR(multi.classes[0].responseTime,
                        flat_res.responseTime,
                        flat_res.responseTime * 1e-9);
            EXPECT_NEAR(multi.totalSpeedup, flat_res.speedup,
                        flat_res.speedup * 1e-9);
            EXPECT_NEAR(multi.busUtil, flat_res.busUtil, 1e-9);
            EXPECT_NEAR(multi.memUtil, flat_res.memUtil, 1e-9);
        }
    }
}

TEST(Multiclass, SplittingAClassChangesNothing)
{
    auto inputs = appendixAInputs(SharingLevel::FivePercent, "1");
    auto merged = solveMulticlass({{"all", 8, inputs}});
    auto split = solveMulticlass(
        {{"left", 3, inputs}, {"right", 5, inputs}});
    EXPECT_NEAR(split.totalSpeedup, merged.totalSpeedup,
                merged.totalSpeedup * 1e-9);
    EXPECT_NEAR(split.classes[0].responseTime,
                split.classes[1].responseTime, 1e-9);
}

TEST(Multiclass, SlowerClassCyclesSlowerButComputesMore)
{
    auto fast = appendixAInputs(SharingLevel::FivePercent, "", 2.5);
    auto slow = appendixAInputs(SharingLevel::FivePercent, "", 10.0);
    auto res = solveMulticlass({{"fast", 4, fast}, {"slow", 4, slow}});
    ASSERT_TRUE(res.converged);
    // The slow class has longer cycles...
    EXPECT_GT(res.classes[1].responseTime, res.classes[0].responseTime);
    // ...but spends a larger fraction of each cycle computing, so its
    // per-class speedup (utilization-like) is higher.
    EXPECT_GT(res.classes[1].speedup, res.classes[0].speedup);
    // The fast class consumes more of the bus.
    EXPECT_GT(res.classes[0].busDemandShare,
              res.classes[1].busDemandShare);
}

TEST(Multiclass, MixedProtocolsShareTheBusConsistently)
{
    // One class running Write-Once alongside one running mods 1+4:
    // total bus utilization is a probability and the mod-1+4 class
    // does better per processor.
    auto wo = appendixAInputs(SharingLevel::TwentyPercent, "");
    auto m14 = appendixAInputs(SharingLevel::TwentyPercent, "14");
    auto res = solveMulticlass({{"wo", 6, wo}, {"m14", 6, m14}});
    ASSERT_TRUE(res.converged);
    EXPECT_LE(res.busUtil, 1.0);
    EXPECT_GT(res.classes[1].speedup / 6.0,
              res.classes[0].speedup / 6.0);
}

TEST(Multiclass, HeavyLoadStillConverges)
{
    auto inputs = appendixAInputs(SharingLevel::FivePercent, "");
    auto res = solveMulticlass(
        {{"a", 200, inputs},
         {"b", 200, appendixAInputs(SharingLevel::TwentyPercent, "1")}});
    EXPECT_TRUE(res.converged);
    EXPECT_GT(res.busUtil, 0.99);
    EXPECT_GT(res.totalSpeedup, 0.0);
}

TEST(Multiclass, AgreesWithHeterogeneousSimulation)
{
    // Two classes differing in tau (2.5 vs 10), same protocol and
    // sharing. The simulator runs 8 processors with per-processor tau
    // multipliers; the multi-class MVA must predict the per-class
    // cycle times within the usual few-percent band.
    WorkloadParams wl = presets::appendixA(SharingLevel::FivePercent);
    SimConfig cfg;
    cfg.numProcessors = 8;
    cfg.workload = wl;
    cfg.protocol = ProtocolConfig::writeOnce();
    cfg.seed = 321;
    cfg.warmupRequests = 10000;
    cfg.measuredRequests = 400000;
    cfg.tauMultipliers = {1, 1, 1, 1, 4, 4, 4, 4};
    auto sim = simulate(cfg);
    ASSERT_EQ(sim.perProcessorResponse.size(), 8u);

    auto fast = appendixAInputs(SharingLevel::FivePercent, "", 2.5);
    auto slow = appendixAInputs(SharingLevel::FivePercent, "", 10.0);
    auto mva = solveMulticlass({{"fast", 4, fast}, {"slow", 4, slow}});

    double sim_fast = 0.0, sim_slow = 0.0;
    for (int i = 0; i < 4; ++i) {
        sim_fast += sim.perProcessorResponse[static_cast<size_t>(i)] / 4;
        sim_slow +=
            sim.perProcessorResponse[static_cast<size_t>(i + 4)] / 4;
    }
    EXPECT_NEAR(mva.classes[0].responseTime, sim_fast, sim_fast * 0.08);
    EXPECT_NEAR(mva.classes[1].responseTime, sim_slow, sim_slow * 0.08);
}

TEST(Multiclass, BadInputsThrow)
{
    EXPECT_THROW(solveMulticlass({}), SolveException);
    auto inputs = appendixAInputs(SharingLevel::FivePercent, "");
    EXPECT_THROW(solveMulticlass({{"empty", 0, inputs}}),
                 SolveException);
    BusTiming other;
    other.tWrite = 2.0;
    auto mismatched = DerivedInputs::compute(
        presets::appendixA(SharingLevel::FivePercent),
        ProtocolConfig::writeOnce(), other);
    try {
        solveMulticlass({{"a", 2, inputs}, {"b", 2, mismatched}});
        FAIL() << "expected SolveException";
    } catch (const SolveException &e) {
        EXPECT_EQ(e.error().code, SolveErrorCode::InvalidArgument);
        EXPECT_NE(std::string(e.what()).find("timing"),
                  std::string::npos);
    }
}

TEST(Multiclass, BadOptionsThrowNamingTheField)
{
    // Damping 0 once froze the waits at zero and returned speedup
    // 13.34 marked converged (6.44 at damping 1); the budgets were
    // silently ignored. All are rejected now.
    auto inputs = appendixAInputs(SharingLevel::FivePercent, "1");
    const std::vector<ProcessorClass> classes = {{"all", 16, inputs}};
    std::vector<std::pair<MvaOptions, std::string>> cases(3);
    cases[0].first.damping = 0.0;
    cases[0].second = "damping";
    cases[1].first.timeBudget = 1.0;
    cases[1].second = "timeBudget";
    cases[2].first.iterationBudget = 3;
    cases[2].second = "iterationBudget";
    for (const auto &[opts, field] : cases) {
        try {
            solveMulticlass(classes, opts);
            ADD_FAILURE() << field << ": expected SolveException";
        } catch (const SolveException &e) {
            EXPECT_EQ(e.error().code, SolveErrorCode::InvalidArgument);
            EXPECT_EQ(e.error().site, "solveMulticlass");
            EXPECT_NE(e.error().message.find(field), std::string::npos)
                << e.what();
        }
    }
}

/** Fault tests arm fault sites and Phase tracing; both start and end
 * cleared. */
class MulticlassFaults : public testing::Test
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
            if (e.name != "mva.multiclass.attempt")
                continue;
            EXPECT_EQ(e.key, out.size());
            out.emplace_back(
                std::stod(e.args.substr(e.args.find(':') + 1)),
                e.args.find("\"converged\":true") != std::string::npos);
        }
        return out;
    }
};

TEST_F(MulticlassFaults, NonconvergeIsOneAttemptAndAFatalError)
{
    ASSERT_TRUE(setFaultSpecs("mva.nonconverge").ok());
    // Fatal is the default: default-constructed options throw too.
    MvaOptions fatal;
    fatal.onNonConvergence = NonConvergencePolicy::Fatal;
    for (const MvaOptions &opts : {MvaOptions{}, fatal}) {
        clearTrace();
        setTrace(TraceLevel::Phase);
        try {
            solveMulticlass(
                {{"all", 8,
                  appendixAInputs(SharingLevel::FivePercent, "")}},
                opts);
            FAIL() << "expected SolveException";
        } catch (const SolveException &e) {
            EXPECT_EQ(e.error().code, SolveErrorCode::NonConvergence);
            EXPECT_EQ(e.error().site, "solveMulticlass");
        }
        // One attempt at the configured damping, and no retry.
        auto attempts = tracedAttempts();
        ASSERT_EQ(attempts.size(), 1u);
        EXPECT_DOUBLE_EQ(attempts[0].first, 0.5);
        EXPECT_FALSE(attempts[0].second);
    }
}

TEST(SimConfigDeath, BadTauMultipliers)
{
    SimConfig cfg;
    cfg.workload = presets::appendixA(SharingLevel::FivePercent);
    cfg.numProcessors = 4;
    cfg.tauMultipliers = {1.0, 2.0};
    EXPECT_EXIT(simulate(cfg), testing::ExitedWithCode(1),
                "tauMultipliers");
    cfg.tauMultipliers = {1.0, 2.0, -1.0, 1.0};
    EXPECT_EXIT(simulate(cfg), testing::ExitedWithCode(1), "positive");
}

} // namespace
} // namespace snoop
