/**
 * @file
 * The input generator's contract: the same seed gives byte-identical
 * inputs, and a different seed gives different inputs.
 */

#include <gtest/gtest.h>

#include "inputs.hh"

using namespace perfbench;

namespace {

/** Every line a serve run would send first: priming, then measured. */
std::string
serveInputs(const std::string &workload, uint64_t seed, size_t measured)
{
    ServeInputs inputs(workload, seed);
    std::string out;
    int64_t id = 1;
    for (const ServeQuery &q : inputs.priming())
        out += requestLine(q, id++) + "\n";
    for (size_t i = 0; i < measured; ++i)
        out += requestLine(inputs.next(), id++) + "\n";
    return out;
}

std::string
sweepInputs(const std::string &workload, uint64_t seed)
{
    std::string out;
    for (const std::string &a : sweepSetupJob(workload, seed).args())
        out += a + " ";
    for (const SweepJob &job : sweepJobs(workload, seed)) {
        out += "\n";
        for (const std::string &a : job.args())
            out += a + " ";
    }
    return out;
}

} // namespace

TEST(PerfbenchInputs, ServeSameSeedSameBytes)
{
    for (const char *w : {"serve_explore", "serve_replay"}) {
        EXPECT_EQ(serveInputs(w, 7, 5000), serveInputs(w, 7, 5000)) << w;
    }
}

TEST(PerfbenchInputs, ServeOtherSeedOtherBytes)
{
    for (const char *w : {"serve_explore", "serve_replay"}) {
        EXPECT_NE(serveInputs(w, 7, 5000), serveInputs(w, 8, 5000)) << w;
    }
}

TEST(PerfbenchInputs, SweepSameSeedSameArgs)
{
    for (const char *w : {"sweep_ckpt", "sweep_grid"}) {
        EXPECT_EQ(sweepInputs(w, 7), sweepInputs(w, 7)) << w;
        EXPECT_NE(sweepInputs(w, 7), sweepInputs(w, 8)) << w;
    }
}

TEST(PerfbenchInputs, ExploreKeysAreDistinctReplayKeysRepeat)
{
    // serve_explore must outgrow the cache; serve_replay must hit it.
    ServeInputs explore("serve_explore", 3);
    EXPECT_EQ(explore.priming().size(), kServeCacheCapacity);
    ServeInputs replay("serve_replay", 3);
    size_t repeated = 0, uncached = 0;
    for (int i = 0; i < 4000; ++i) {
        ServeQuery q = replay.next();
        repeated += q.key >= 0;
        uncached += q.noCache;
    }
    EXPECT_EQ(repeated, 4000u);
    EXPECT_EQ(uncached, 10u);
}

TEST(PerfbenchInputs, RequestLineRoundTripsValues)
{
    ServeInputs inputs("serve_explore", 11);
    ServeQuery q = inputs.next();
    std::string line = requestLine(q, 42);
    EXPECT_EQ(line.rfind("{\"id\":42,\"op\":\"analyze\"", 0), 0u);
    EXPECT_TRUE(static_cast<bool>(q.workload().check()));
}
