/**
 * Tests for the SolveService batch engine: exact-hit memoization,
 * answers bit-identical to a cold scalar solve (through an evicting
 * cache), the determinism contract across thread counts, per-request
 * admission control (budgets), deterministic fault isolation, and the
 * non-solve ops (saturation, rank, sweep, stats, shutdown).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "random/rng.hh"
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

/** The response line to @p req, parsed back. */
JsonValue
served(SolveService &service, const Request &req)
{
    auto v = parseJson(service.handle(req));
    EXPECT_TRUE(bool(v));
    return v ? std::move(v).value() : JsonValue();
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
    auto first = served(service, analyzeReq(1, 0.5));
    auto second = served(service, analyzeReq(2, 0.5));
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
    auto hit = served(service, analyzeReq(2, 0.5 + 1e-12));
    EXPECT_TRUE(flag(hit, "cached"));
}

TEST(ServeService, NoCacheBypassesLookupAndInsertion)
{
    SolveService service;
    Request req = analyzeReq(1, 0.5);
    req.noCache = true;
    service.handle(req);
    EXPECT_EQ(service.cache().size(), 0u);
    auto again = served(service, req);
    EXPECT_FALSE(flag(again, "cached"));
}

/**
 * A serve_explore-shaped analyze request: any of the 16 protocols,
 * N in [4, 128], and six workload fields drawn over ranges where
 * every protocol converges, rounded to 1e-4 like a parameter study.
 */
Request
exploreReq(int64_t id, uint64_t &state)
{
    struct Varied
    {
        double WorkloadParams::*member;
        double lo, hi;
    };
    static constexpr Varied kVaried[] = {
        {&WorkloadParams::tau, 1.5, 4.0},
        {&WorkloadParams::hPrivate, 0.90, 0.99},
        {&WorkloadParams::hSw, 0.3, 0.9},
        {&WorkloadParams::rSw, 0.3, 0.8},
        {&WorkloadParams::amodSw, 0.1, 0.6},
        {&WorkloadParams::csupplySw, 0.2, 0.8},
    };
    Request req;
    req.id = id;
    req.op = RequestOp::Analyze;
    req.protocol = ProtocolConfig::fromIndex(
        static_cast<unsigned>(splitMix64(state) % kProtocolCount));
    req.n = 4 + static_cast<unsigned>(splitMix64(state) % 125);
    req.workload = presets::appendixA(SharingLevel::FivePercent);
    for (const Varied &v : kVaried) {
        double u = static_cast<double>(splitMix64(state) >> 11) * 0x1p-53;
        req.workload.*(v.member) =
            std::round((v.lo + u * (v.hi - v.lo)) * 1e4) / 1e4;
    }
    return req;
}

TEST(ServeService, EveryAnswerIsBitIdenticalToAColdSolve)
{
    // A 24-entry cache under a stream of mostly fresh points: nearly
    // every request misses, entries are evicted throughout, and a
    // quarter of the stream repeats a recent request (a hit while it
    // is still cached, a fresh miss once evicted). Every answer, read
    // back off the wire, must be the cold scalar solve's bits.
    ServeOptions opts;
    opts.cacheCapacity = 24;
    SolveService service(opts);
    MvaSolver reference(defaultServeSolverOptions());
    uint64_t state = 0x5eedull;
    std::vector<Request> recent;
    size_t misses = 0, hits = 0;
    int64_t id = 0;
    while (misses < 1000) {
        // Batches of one to four requests, so the lockstep batch
        // engine runs several lanes at once.
        std::vector<Request> batch(1 + splitMix64(state) % 4);
        for (Request &req : batch) {
            if (recent.size() == 32 && splitMix64(state) % 4 == 0) {
                req = recent[splitMix64(state) % recent.size()];
                req.id = ++id;
            } else {
                req = exploreReq(++id, state);
            }
            if (recent.size() < 32)
                recent.push_back(req);
            else
                recent[static_cast<size_t>(id) % 32] = req;
        }
        std::vector<std::string> responses = service.handleBatch(batch);
        for (size_t i = 0; i < batch.size(); ++i) {
            const Request &req = batch[i];
            auto wire = parseJson(responses[i]);
            ASSERT_TRUE(bool(wire)) << "id " << req.id;
            // The field writer's bytes are the codec's bytes for the
            // same tree: sorted keys, shortest numbers.
            EXPECT_EQ(serializeJson(wire.value()), responses[i]);
            const JsonValue *result = wire.value().get("result");
            ASSERT_NE(result, nullptr) << responses[i];
            auto cold = reference.trySolve(
                DerivedInputs::compute(req.workload, req.protocol), req.n);
            ASSERT_TRUE(bool(cold)) << "id " << req.id;
            const MvaResult &r = cold.value();
            ++(result->get("cached")->asBool() ? hits : misses);
            EXPECT_FALSE(result->get("warmStarted")->asBool());
            const std::pair<const char *, double> fields[] = {
                {"n", r.numProcessors},
                {"speedup", r.speedup},
                {"processingPower", r.processingPower},
                {"responseTime", r.responseTime},
                {"busUtil", r.busUtil},
                {"memUtil", r.memUtil},
                {"wBus", r.wBus},
                {"wMem", r.wMem},
                {"qBus", r.qBus},
                {"iterations", static_cast<double>(r.iterations)},
            };
            for (const auto &[name, want] : fields)
                EXPECT_EQ(std::bit_cast<uint64_t>(
                              result->get(name)->asNumber()),
                          std::bit_cast<uint64_t>(want))
                    << name << ", id " << req.id;
            EXPECT_EQ(result->get("converged")->asBool(), r.converged);
        }
        if (HasFailure())
            FAIL() << "stopped at request " << id;
    }
    EXPECT_GT(hits, 0u);
    EXPECT_GT(service.cache().evictions(), 900u);
}

TEST(ServeService, NoWarmStartIsAcceptedAndIgnored)
{
    // Two services with the same history; the second request differs
    // only in the flag, so the answers must be the same bytes.
    auto session = [](const char *flag) {
        SolveService service;
        service.handle(analyzeReq(1, 0.5));
        auto req = parseRequestLine(
            std::string("{\"id\":2,\"op\":\"analyze\",\"protocol\":\"13\","
                        "\"preset\":\"appendixA5\",\"workload\":{\"hSw\":0.501},"
                        "\"n\":16") +
            flag + "}");
        EXPECT_TRUE(bool(req));
        return service.handle(req.value().front());
    };
    std::string plain = session("");
    EXPECT_EQ(session(",\"noWarmStart\":true"), plain);
    EXPECT_NE(plain.find("\"warmStarted\":false"), std::string::npos);
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
            for (const std::string &r : service.handleBatch(batch))
                out += r + "\n";
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
    auto lines = service.handleBatch(batch);
    clearFaultSpecs();
    ASSERT_EQ(lines.size(), 4u);
    for (size_t i = 0; i < lines.size(); ++i) {
        int64_t id = batch[i].id;
        auto response = parseJson(lines[i]);
        ASSERT_TRUE(bool(response)) << lines[i];
        bool ok = response.value().get("ok")->asBool();
        EXPECT_EQ(ok, id % 2 != 0) << "id " << id;
        if (!ok) {
            const JsonValue *code =
                response.value().get("error")->get("code");
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
    auto r = served(service, req);
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
    auto r = served(service, req);
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
    auto r = served(service, sat);
    ASSERT_TRUE(r.get("ok")->asBool());
    EXPECT_TRUE(flag(r, "found"));
    EXPECT_GE(field(r, "n"), 1.0);

    Request rank;
    rank.id = 2;
    rank.op = RequestOp::Rank;
    rank.workload = presets::appendixA(SharingLevel::FivePercent);
    rank.n = 16;
    r = served(service, rank);
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
    r = served(service, sweep);
    ASSERT_TRUE(r.get("ok")->asBool());
    EXPECT_EQ(r.get("result")->get("cells")->asArray().size(), 3u);

    Request stats;
    stats.id = 4;
    stats.op = RequestOp::Stats;
    r = served(service, stats);
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
        ASSERT_TRUE(served(service, req).get("ok")->asBool());
    }
    ASSERT_TRUE(bool(setFaultSpecs("serve.request:every=2")));
    Request rank;
    rank.id = 2;
    rank.op = RequestOp::Rank;
    rank.workload = presets::appendixA(SharingLevel::FivePercent);
    rank.n = 16;
    auto r = served(service, rank);
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

TEST(ServeService, FieldWrittenLinesAreTheCodecsBytes)
{
    // Re-encoding a parsed answer through the tree codec must give the
    // writer's line back: same sorted keys, same shortest numbers, in
    // result objects, sweep and rank cells and their error cells.
    SolveService service;
    Request sweep;
    sweep.id = -7;
    sweep.op = RequestOp::Sweep;
    sweep.protocol = ProtocolConfig::fromModString("24");
    sweep.workload = presets::appendixA(SharingLevel::TwentyPercent);
    sweep.ns = {1, 3, 64, 1000};
    sweep.iterationBudget = 20; // the large sizes run out
    Request rank;
    rank.id = 1234567;
    rank.op = RequestOp::Rank;
    rank.workload = presets::highSharing();
    rank.n = 33;
    std::vector<Request> batch{analyzeReq(1, 0.45), analyzeReq(2, 0.45),
                               sweep, rank};
    ASSERT_TRUE(bool(setFaultSpecs("serve.request:every=3")));
    std::vector<std::string> lines = service.handleBatch(batch);
    std::vector<std::string> again = service.handleBatch(batch);
    clearFaultSpecs();
    lines.insert(lines.end(), again.begin(), again.end());
    size_t errorCells = 0;
    for (const std::string &line : lines) {
        auto doc = parseJson(line);
        ASSERT_TRUE(bool(doc)) << line;
        EXPECT_EQ(serializeJson(doc.value()), line);
        for (size_t at = line.find("\"ok\":false"); at != std::string::npos;
             at = line.find("\"ok\":false", at + 1))
            ++errorCells;
    }
    EXPECT_GT(errorCells, 0u);
}

TEST(ServeService, InvalidWorkloadFailsAdmission)
{
    SolveService service;
    Request req = analyzeReq(1, 2.0); // hSw > 1 fails check()
    auto r = served(service, req);
    ASSERT_FALSE(r.get("ok")->asBool());
    EXPECT_EQ(r.get("error")->get("code")->asString(),
              "invalid-argument");
    EXPECT_EQ(service.cache().size(), 0u);
}

} // namespace
} // namespace snoop
