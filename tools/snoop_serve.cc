/**
 * @file
 * snoop_serve: the batched analysis daemon. Line-delimited JSON over
 * stdin/stdout - each input line is one request (or a batch
 * envelope), each output line one response, in request order
 * (docs/SERVING.md has the full protocol).
 *
 * The process is a thin loop over serve::SolveService: parse, serve,
 * print, flush. Malformed and oversized lines become error responses,
 * never exits; the only ways out are EOF and the `shutdown` op.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "serve/service.hh"
#include "util/cli.hh"
#include "util/expected.hh"
#include "util/line_reader.hh"
#include "util/parallel.hh"

using namespace snoop;

int
main(int argc, char **argv)
{
    CliParser cli("snoop_serve",
                  "Batched MVA analysis service over stdin/stdout "
                  "(line-delimited JSON; see docs/SERVING.md)");
    cli.addOption("cache-capacity", "4096",
                  "solution-cache entries before LRU eviction");
    cli.addOption("quantum", "1e-9",
                  "cache-key canonicalization grid step");
    cli.addOption("max-time-budget", "0",
                  "per-solve wall-clock ceiling in seconds (0 = none); "
                  "requests can only tighten it");
    cli.addOption("max-iteration-budget", "0",
                  "per-solve iteration ceiling (0 = none)");
    cli.addOption("jobs", "0",
                  "worker threads for batch solves (0 = SNOOP_JOBS / "
                  "hardware)");
    cli.parse(argc, argv);

    ServeOptions opts;
    int capacity = cli.getInt("cache-capacity");
    if (capacity < 1) {
        std::fprintf(stderr,
                     "snoop_serve: --cache-capacity must be >= 1\n");
        return 1;
    }
    opts.cacheCapacity = static_cast<size_t>(capacity);
    opts.quantum = cli.getDouble("quantum");
    // getDouble() already rejects NaN and infinities.
    if (opts.quantum <= 0.0) {
        std::fprintf(stderr,
                     "snoop_serve: --quantum must be positive and "
                     "finite\n");
        return 1;
    }
    opts.maxTimeBudget = cli.getDouble("max-time-budget");
    if (opts.maxTimeBudget < 0.0) {
        std::fprintf(stderr,
                     "snoop_serve: --max-time-budget must be finite "
                     "and >= 0\n");
        return 1;
    }
    opts.maxIterationBudget = cli.getLong("max-iteration-budget");
    if (opts.maxIterationBudget < 0) {
        std::fprintf(stderr,
                     "snoop_serve: --max-iteration-budget must be "
                     ">= 0\n");
        return 1;
    }

    int jobs = cli.getInt("jobs");
    if (jobs > 0)
        setParallelJobs(static_cast<unsigned>(jobs));

    SolveService service(opts);

    // One line buffer for the session: a request line over the 1 MiB
    // cap is skipped without being stored and answered with an
    // InvalidArgument error, so a runaway client cannot make the
    // daemon allocate without bound.
    LineReader reader(std::cin);
    std::string line;
    for (;;) {
        const LineStatus status = reader.next();
        if (status == LineStatus::End)
            return 0;
        if (status == LineStatus::TooLong) {
            std::cout << serializeJson(errorResponse(
                             0, makeError(SolveErrorCode::InvalidArgument,
                                          "snoop_serve",
                                          "request line exceeds %zu "
                                          "bytes; discarded",
                                          reader.maxBytes())))
                      << '\n'
                      << std::flush;
            continue;
        }
        line.assign(reader.line());
        if (line.empty())
            continue;

        auto requests = parseRequestLine(line);
        if (!requests) {
            std::cout << serializeJson(errorResponse(
                             recoverRequestId(line),
                             std::move(requests).error()))
                      << '\n'
                      << std::flush;
            continue;
        }

        bool shutdown = false;
        for (const Request &req : requests.value())
            shutdown = shutdown || req.op == RequestOp::Shutdown;

        std::vector<JsonValue> responses =
            service.handleBatch(requests.value());
        for (const JsonValue &response : responses)
            std::cout << serializeJson(response) << '\n';
        std::cout << std::flush;

        if (shutdown)
            return 0;
    }
}
