/**
 * Tests for the SolveService batch engine: exact-hit memoization,
 * warm-start continuation (fewer fixed-point iterations, agreement
 * with the cold answer), the determinism contract across thread
 * counts, per-request admission control (budgets), deterministic
 * fault isolation, and the non-solve ops (saturation, rank, sweep,
 * stats, shutdown).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "serve/service.hh"
#include "util/fault.hh"
#include "util/parallel.hh"

namespace snoop {
namespace {

Request
analyzeReq(int64_t id, double hsw, unsigned n = 16)
{
    Request req;
    req.id = id;
    req.op = RequestOp::Analyze;
    req.protocol = ProtocolConfig::fromModString("13"); // Illinois
    req.workload = presets::appendixA(SharingLevel::FivePercent);
    req.workload.hSw = hsw;
    req.n = n;
    return req;
}

double
field(const JsonValue &response, const char *name)
{
    const JsonValue *result = response.get("result");
    EXPECT_NE(result, nullptr);
    const JsonValue *v = result ? result->get(name) : nullptr;
    EXPECT_NE(v, nullptr) << name;
    return v && v->isNumber() ? v->asNumber() : std::nan("");
}

bool
flag(const JsonValue &response, const char *name)
{
    const JsonValue *result = response.get("result");
    const JsonValue *v = result ? result->get(name) : nullptr;
    return v != nullptr && v->isBool() && v->asBool();
}

TEST(ServeService, RepeatQueryIsAnExactHit)
{
    SolveService service;
    auto first = service.handle(analyzeReq(1, 0.5));
    auto second = service.handle(analyzeReq(2, 0.5));
    EXPECT_TRUE(first.get("ok")->asBool());
    EXPECT_FALSE(flag(first, "cached"));
    EXPECT_TRUE(flag(second, "cached"));
    // The hit replays the stored solution bit-for-bit.
    EXPECT_EQ(field(first, "responseTime"),
              field(second, "responseTime"));
    EXPECT_EQ(field(first, "speedup"), field(second, "speedup"));
    EXPECT_EQ(service.cache().size(), 1u);
}

TEST(ServeService, SubQuantumPerturbationStillHits)
{
    SolveService service;
    service.handle(analyzeReq(1, 0.5));
    auto hit = service.handle(analyzeReq(2, 0.5 + 1e-12));
    EXPECT_TRUE(flag(hit, "cached"));
}

TEST(ServeService, NoCacheBypassesLookupAndInsertion)
{
    SolveService service;
    Request req = analyzeReq(1, 0.5);
    req.noCache = true;
    service.handle(req);
    EXPECT_EQ(service.cache().size(), 0u);
    auto again = service.handle(req);
    EXPECT_FALSE(flag(again, "cached"));
}

TEST(ServeService, WarmStartConvergesInFewerIterationsAndAgrees)
{
    // Cold baseline for the perturbed query, on its own service.
    Request probe = analyzeReq(1, 0.501);
    probe.noWarmStart = true;
    SolveService cold_service;
    auto cold = cold_service.handle(probe);
    double cold_iters = field(cold, "iterations");
    EXPECT_FALSE(flag(cold, "warmStarted"));

    // Same query warm-started from the cached 0.5 neighbor.
    SolveService service;
    service.handle(analyzeReq(1, 0.5));
    auto warm = service.handle(analyzeReq(2, 0.501));
    EXPECT_TRUE(flag(warm, "warmStarted"));
    EXPECT_FALSE(flag(warm, "cached"));
    EXPECT_LT(field(warm, "iterations"), cold_iters);

    // The continuation lands on the same fixed point within the
    // documented envelope (docs/SERVING.md): the stop test bounds the
    // distance left to the fixed point, and the measured worst case
    // over 60k serve_explore answers is 1.5e-9 relative.
    for (const char *name : {"responseTime", "speedup", "busUtil"}) {
        double a = field(cold, name), b = field(warm, name);
        EXPECT_NEAR(a, b, 1e-8 * std::fabs(a)) << name;
    }
}

TEST(ServeService, NoWarmStartForcesColdSolve)
{
    SolveService service;
    service.handle(analyzeReq(1, 0.5));
    Request req = analyzeReq(2, 0.501);
    req.noWarmStart = true;
    auto r = service.handle(req);
    EXPECT_FALSE(flag(r, "warmStarted"));
}

TEST(ServeService, BatchResponsesAreIdenticalAtAnyThreadCount)
{
    std::vector<Request> batch;
    for (int i = 0; i < 6; ++i)
        batch.push_back(analyzeReq(i, 0.48 + 0.01 * i));
    Request rank;
    rank.id = 90;
    rank.op = RequestOp::Rank;
    rank.workload = presets::appendixA(SharingLevel::TwentyPercent);
    rank.n = 16;
    batch.push_back(rank);
    Request sweep;
    sweep.id = 91;
    sweep.op = RequestOp::Sweep;
    sweep.protocol = ProtocolConfig::writeOnce();
    sweep.workload = presets::appendixA(SharingLevel::OnePercent);
    sweep.ns = {1, 2, 4, 8, 16};
    batch.push_back(sweep);

    auto transcript = [&](unsigned jobs) {
        setParallelJobs(jobs);
        SolveService service;
        std::string out;
        // Two passes: the second hits the cache warm - both must be
        // schedule-independent.
        for (int pass = 0; pass < 2; ++pass)
            for (const JsonValue &r : service.handleBatch(batch))
                out += serializeJson(r) + "\n";
        return out;
    };
    std::string serial = transcript(1);
    std::string parallel = transcript(8);
    setParallelJobs(0);
    EXPECT_EQ(serial, parallel);
}

TEST(ServeService, InjectedFaultIsIsolatedToItsRequest)
{
    ASSERT_TRUE(bool(setFaultSpecs("serve.request:every=2")));
    SolveService service;
    std::vector<Request> batch;
    for (int64_t id = 1; id <= 4; ++id)
        batch.push_back(analyzeReq(id, 0.4 + 0.02 * id));
    auto responses = service.handleBatch(batch);
    clearFaultSpecs();
    ASSERT_EQ(responses.size(), 4u);
    for (size_t i = 0; i < responses.size(); ++i) {
        int64_t id = batch[i].id;
        bool ok = responses[i].get("ok")->asBool();
        EXPECT_EQ(ok, id % 2 != 0) << "id " << id;
        if (!ok) {
            const JsonValue *code =
                responses[i].get("error")->get("code");
            EXPECT_EQ(code->asString(), "injected-fault");
        }
    }
    // Faulted cells must not poison the cache.
    EXPECT_EQ(service.cache().size(), 2u);
}

TEST(ServeService, IterationBudgetBecomesStructuredError)
{
    SolveService service;
    Request req = analyzeReq(1, 0.5, 64);
    req.iterationBudget = 3;
    auto r = service.handle(req);
    ASSERT_FALSE(r.get("ok")->asBool());
    EXPECT_EQ(r.get("error")->get("code")->asString(),
              "budget-exhausted");
    EXPECT_EQ(service.cache().size(), 0u);
}

TEST(ServeService, ServiceCeilingClampsRequestBudgets)
{
    ServeOptions opts;
    opts.maxIterationBudget = 3;
    SolveService service(opts);
    Request req = analyzeReq(1, 0.5, 64);
    req.iterationBudget = 1000000; // cannot exceed the ceiling
    auto r = service.handle(req);
    ASSERT_FALSE(r.get("ok")->asBool());
    EXPECT_EQ(r.get("error")->get("code")->asString(),
              "budget-exhausted");
}

TEST(ServeService, SaturationRankSweepAndStats)
{
    SolveService service;

    Request sat;
    sat.id = 1;
    sat.op = RequestOp::Saturation;
    sat.protocol = ProtocolConfig::fromModString("13");
    sat.workload = presets::appendixA(SharingLevel::TwentyPercent);
    sat.target = 0.9;
    sat.limit = 256;
    auto r = service.handle(sat);
    ASSERT_TRUE(r.get("ok")->asBool());
    EXPECT_TRUE(flag(r, "found"));
    EXPECT_GE(field(r, "n"), 1.0);

    Request rank;
    rank.id = 2;
    rank.op = RequestOp::Rank;
    rank.workload = presets::appendixA(SharingLevel::FivePercent);
    rank.n = 16;
    r = service.handle(rank);
    ASSERT_TRUE(r.get("ok")->asBool());
    const auto &ranking =
        r.get("result")->get("ranking")->asArray();
    ASSERT_EQ(ranking.size(), 16u);
    for (size_t i = 1; i < ranking.size(); ++i) {
        EXPECT_GE(ranking[i - 1].get("speedup")->asNumber(),
                  ranking[i].get("speedup")->asNumber());
    }

    Request sweep;
    sweep.id = 3;
    sweep.op = RequestOp::Sweep;
    sweep.protocol = ProtocolConfig::writeOnce();
    sweep.workload = presets::appendixA(SharingLevel::FivePercent);
    sweep.ns = {2, 4, 8};
    r = service.handle(sweep);
    ASSERT_TRUE(r.get("ok")->asBool());
    EXPECT_EQ(r.get("result")->get("cells")->asArray().size(), 3u);

    Request stats;
    stats.id = 4;
    stats.op = RequestOp::Stats;
    r = service.handle(stats);
    ASSERT_TRUE(r.get("ok")->asBool());
    // 16 rank cells + 3 sweep cells are cached by now.
    EXPECT_EQ(r.get("result")->get("cache")->get("size")->asNumber(),
              19.0);
}

TEST(ServeService, RankPutsFailedCellsLastInIndexOrder)
{
    SolveService service;
    // Exact hits skip the fault check: cache three configurations at
    // the rank's design point first.
    const std::vector<unsigned> cached = {2, 9, 13};
    for (unsigned idx : cached) {
        Request req;
        req.id = 1;
        req.op = RequestOp::Analyze;
        req.protocol = ProtocolConfig::fromIndex(idx);
        req.workload = presets::appendixA(SharingLevel::FivePercent);
        req.n = 16;
        ASSERT_TRUE(service.handle(req).get("ok")->asBool());
    }
    ASSERT_TRUE(bool(setFaultSpecs("serve.request:every=2")));
    Request rank;
    rank.id = 2;
    rank.op = RequestOp::Rank;
    rank.workload = presets::appendixA(SharingLevel::FivePercent);
    rank.n = 16;
    auto r = service.handle(rank);
    clearFaultSpecs();
    ASSERT_TRUE(r.get("ok")->asBool());
    const auto &ranking = r.get("result")->get("ranking")->asArray();
    ASSERT_EQ(ranking.size(), 16u);
    // The hits rank first by speedup; every faulted cell follows, in
    // protocol index order.
    for (size_t i = 0; i < cached.size(); ++i) {
        EXPECT_TRUE(ranking[i].get("ok")->asBool());
        EXPECT_TRUE(ranking[i].get("cached")->asBool());
        if (i > 0) {
            EXPECT_GE(ranking[i - 1].get("speedup")->asNumber(),
                      ranking[i].get("speedup")->asNumber());
        }
    }
    size_t next = cached.size();
    for (unsigned idx = 0; idx < 16; ++idx) {
        if (std::find(cached.begin(), cached.end(), idx) != cached.end())
            continue;
        const JsonValue &cell = ranking[next++];
        EXPECT_FALSE(cell.get("ok")->asBool());
        EXPECT_EQ(cell.get("protocol")->asString(),
                  ProtocolConfig::fromIndex(idx).name());
        EXPECT_EQ(cell.get("error")->get("code")->asString(),
                  "injected-fault");
    }
    EXPECT_EQ(service.cache().size(), cached.size());
}

TEST(ServeService, InvalidWorkloadFailsAdmission)
{
    SolveService service;
    Request req = analyzeReq(1, 2.0); // hSw > 1 fails check()
    auto r = service.handle(req);
    ASSERT_FALSE(r.get("ok")->asBool());
    EXPECT_EQ(r.get("error")->get("code")->asString(),
              "invalid-argument");
    EXPECT_EQ(service.cache().size(), 0u);
}

} // namespace
} // namespace snoop
