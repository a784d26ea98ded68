/**
 * Cross-mode validation: measure the emergent workload parameters in
 * a trace-driven run (real caches, real addresses), feed them into
 * the probabilistic simulator (the paper's workload treatment), and
 * compare. Agreement means the probabilistic abstraction of Section
 * 2.3 captures what matters about the address-level behavior - the
 * assumption the whole paper rests on.
 */

#include <gtest/gtest.h>

#include "sim/prob_sim.hh"
#include "sim/trace_sim.hh"

namespace snoop {
namespace {

TEST(TraceVsProb, MeasuredParametersReproduceTraceSpeedup)
{
    // 1. trace-driven run with real caches
    TraceSimConfig trace_cfg;
    trace_cfg.numProcessors = 6;
    trace_cfg.workload = presets::appendixA(SharingLevel::FivePercent);
    trace_cfg.protocol = ProtocolConfig::writeOnce();
    trace_cfg.seed = 2024;
    trace_cfg.warmupRequests = 30000;
    trace_cfg.measuredRequests = 200000;
    auto trace = simulateTrace(trace_cfg);

    // 2. build a probabilistic workload from the measurements
    WorkloadParams measured = trace_cfg.workload;
    measured.hPrivate = trace.measured.hitPrivate;
    measured.hSro = trace.measured.hitSro;
    measured.hSw = trace.measured.hitSw;
    measured.amodPrivate = trace.measured.amodPrivate;
    measured.amodSw = trace.measured.amodSw;
    measured.csupplySro = trace.measured.csupplyShared;
    measured.csupplySw = trace.measured.csupplyShared;
    measured.repP = trace.measured.repAll;
    measured.repSw = trace.measured.repAll;
    ASSERT_TRUE(measured.check().ok());

    // 3. probabilistic run with the measured parameters
    SimConfig prob_cfg;
    prob_cfg.numProcessors = trace_cfg.numProcessors;
    prob_cfg.workload = measured;
    prob_cfg.protocol = trace_cfg.protocol;
    prob_cfg.seed = 99;
    prob_cfg.warmupRequests = 20000;
    prob_cfg.measuredRequests = 200000;
    auto prob = simulate(prob_cfg);

    // The probabilistic abstraction loses temporal correlation in the
    // address stream, so expect agreement within ~12%, not exactness.
    EXPECT_NEAR(prob.speedup, trace.speedup, trace.speedup * 0.12)
        << "trace=" << trace.speedup << " prob=" << prob.speedup;
    EXPECT_NEAR(prob.busUtilization, trace.busUtilization, 0.12);
}

TEST(TraceVsProb, AgreementHoldsForMod1Too)
{
    TraceSimConfig trace_cfg;
    trace_cfg.numProcessors = 6;
    trace_cfg.workload = presets::appendixA(SharingLevel::TwentyPercent);
    trace_cfg.protocol = ProtocolConfig::fromModString("1");
    trace_cfg.seed = 4096;
    trace_cfg.warmupRequests = 30000;
    trace_cfg.measuredRequests = 200000;
    auto trace = simulateTrace(trace_cfg);

    WorkloadParams measured = trace_cfg.workload;
    measured.hPrivate = trace.measured.hitPrivate;
    measured.hSro = trace.measured.hitSro;
    measured.hSw = trace.measured.hitSw;
    measured.amodPrivate = trace.measured.amodPrivate;
    measured.amodSw = trace.measured.amodSw;
    measured.csupplySro = trace.measured.csupplyShared;
    measured.csupplySw = trace.measured.csupplyShared;
    // adjustedFor(mod1) scales rep_p by 1.5; pre-divide so the
    // protocol-adjusted value equals the measured one.
    measured.repP = trace.measured.repAll / 1.5;
    measured.repSw = trace.measured.repAll;
    ASSERT_TRUE(measured.check().ok());

    SimConfig prob_cfg;
    prob_cfg.numProcessors = 6;
    prob_cfg.workload = measured;
    prob_cfg.protocol = trace_cfg.protocol;
    prob_cfg.seed = 7;
    prob_cfg.measuredRequests = 200000;
    auto prob = simulate(prob_cfg);

    EXPECT_NEAR(prob.speedup, trace.speedup, trace.speedup * 0.15)
        << "trace=" << trace.speedup << " prob=" << prob.speedup;
}

} // namespace
} // namespace snoop
