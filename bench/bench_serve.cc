/**
 * @file
 * Serve-layer benchmark: the acceptance gauge for the snoop_serve
 * solution cache (src/serve/, docs/SERVING.md).
 *
 * It drives one query population - 64 near-duplicate analyze queries
 * on a hSw grid, the parameter-study traffic the service exists for -
 * through two regimes:
 *
 *  - cold:   every query solved from the Section 3.2 start, cache
 *            bypassed (the no-service baseline);
 *  - cached: the population served again over a primed cache (every
 *            query an exact hit);
 *
 * and writes the latency comparison as JSON (default:
 * BENCH_serve.json in the current directory, or the one path
 * argument). Exits nonzero when a cache hit is not at least 10x
 * cheaper than a cold solve - the number the cache is for.
 */

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "observe/metrics.hh"
#include "serve/service.hh"
#include "util/atomic_file.hh"
#include "util/parallel.hh"

namespace snoop::bench {
namespace {

constexpr unsigned kQueries = 64;
constexpr unsigned kN = 96;
constexpr double kBaseHsw = 0.5;
constexpr double kStep = 2e-4;

/**
 * The query population: near-duplicate points of a hSw parameter
 * study on a contended 64-processor system - the heavy end of the
 * paper's design space, where a cold solve costs a few hundred
 * fixed-point iterations. Built once; the timed loops must measure
 * the service, not request construction.
 */
std::vector<Request>
queries()
{
    std::vector<Request> out;
    out.reserve(kQueries);
    for (unsigned i = 0; i < kQueries; ++i) {
        Request req;
        req.id = static_cast<int64_t>(i);
        req.op = RequestOp::Analyze;
        req.protocol = *findProtocol("Illinois");
        req.workload = presets::appendixA(SharingLevel::TwentyPercent);
        req.workload.hSw = kBaseHsw + i * kStep;
        req.n = kN;
        out.push_back(req);
    }
    return out;
}

/** (count, total) of a counter in the current metrics snapshot. */
std::pair<uint64_t, double>
counter(const char *name)
{
    for (const MetricEntry &entry : metrics().snapshot())
        if (entry.name == name)
            return {entry.count, entry.total};
    return {0, 0.0};
}

int
run(const char *out_path)
{
    // Single-threaded on purpose: the comparison is per-request cost,
    // not pool throughput (bench_parallel covers the pool).
    setParallelJobs(1);

    const int cold_reps = 5;
    const int cached_reps = 50;
    const std::vector<Request> pop = queries();

    // The iteration count comes from a dedicated instrumented pass;
    // the timed passes below run with the registry disabled so they
    // measure the service, not the metrics mutex.
    metrics().setEnabled(true);
    metrics().reset();
    {
        SolveService service;
        for (const Request &req : pop)
            service.handle(req);
    }
    auto [cold_solves, cold_iters] = counter("serve.cold_iterations");
    double cold_iter_mean =
        cold_solves ? cold_iters / static_cast<double>(cold_solves) : 0;
    metrics().setEnabled(false);

    /** True when the response reports result.cached == expected. */
    auto cachedFlag = [](const JsonValue &response) {
        const JsonValue *result = response.get("result");
        const JsonValue *cached =
            result ? result->get("cached") : nullptr;
        return cached != nullptr && cached->asBool();
    };

    // --- cold: cache bypassed, Section 3.2 start every time.
    double cold_us = 0.0;
    {
        SolveService service;
        std::vector<Request> bypass = pop;
        for (Request &req : bypass)
            req.noCache = true;
        cold_us = elapsedUs([&] {
            for (int rep = 0; rep < cold_reps; ++rep)
                for (const Request &req : bypass)
                    service.handle(req);
        });
    }
    double cold_per_query = cold_us / (cold_reps * kQueries);

    // --- cached: the same population over a primed cache.
    double cached_us = 0.0;
    bool hits_complete = true;
    {
        SolveService service;
        for (const Request &req : pop)
            service.handle(req); // prime (not timed)
        cached_us = elapsedUs([&] {
            for (int rep = 0; rep < cached_reps; ++rep)
                for (const Request &req : pop)
                    service.handle(req);
        });
        for (const Request &req : pop)
            hits_complete = hits_complete && cachedFlag(service.handle(req));
    }
    double cached_per_query = cached_us / (cached_reps * kQueries);

    double hit_speedup =
        cached_per_query > 0 ? cold_per_query / cached_per_query : 0;
    bool hit_ok = hits_complete && hit_speedup >= 10.0;

    std::string json = strprintf(
        "{\n"
        "  \"bench\": \"serve\",\n"
        "  \"hardware_concurrency\": %u,\n"
        "  \"jobs\": 1,\n"
        "  \"queries\": %u,\n"
        "  \"n\": %u,\n"
        "  \"workload\": \"appendixA20, hSw in [%.4f, %.4f] step %g\",\n"
        "  \"cold\": {\n"
        "    \"repetitions\": %d, \"us_per_query\": %.2f,\n"
        "    \"iterations_mean\": %.2f\n"
        "  },\n"
        "  \"cached\": {\n"
        "    \"repetitions\": %d, \"us_per_query\": %.2f,\n"
        "    \"all_hits\": %s,\n"
        "    \"speedup_vs_cold\": %.1f, \"at_least_10x\": %s\n"
        "  }\n"
        "}\n",
        std::thread::hardware_concurrency(), kQueries, kN, kBaseHsw,
        kBaseHsw + (kQueries - 1) * kStep, kStep, cold_reps,
        cold_per_query, cold_iter_mean, cached_reps, cached_per_query,
        hits_complete ? "true" : "false", hit_speedup,
        hit_ok ? "true" : "false");

    std::fputs(json.c_str(), stdout);
    AtomicFile out(out_path);
    if (out.ok())
        out.stream() << json;
    if (auto ok = out.commit(); ok)
        inform("wrote %s", out_path);
    else
        warn("could not write %s: %s", out_path,
             ok.error().describe().c_str());

    if (!hit_ok) {
        warn("cache hits are not >= 10x cheaper than cold solves");
        return 1;
    }
    return 0;
}

} // namespace
} // namespace snoop::bench

int
main(int argc, char **argv)
{
    return snoop::bench::run(
        snoop::bench::gateArgs(argc, argv, "BENCH_serve.json", false)
            .outPath);
}
