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
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "serve/service.hh"
#include "util/cli.hh"
#include "util/expected.hh"
#include "util/parallel.hh"

using namespace snoop;

/**
 * The longest request line the daemon buffers (1 MiB: a batch of
 * several thousand requests). The rest of a longer line is skipped
 * without being stored and the line is answered with an
 * InvalidArgument error, so a runaway client cannot make the daemon
 * allocate without bound.
 */
constexpr std::streamsize kMaxRequestLineBytes = std::streamsize{1} << 20;

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
    cli.addFlag("no-warm-start",
                "never seed cache-miss solves from cached neighbors");
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
    opts.warmStart = !cli.getFlag("no-warm-start");

    int jobs = cli.getInt("jobs");
    if (jobs > 0)
        setParallelJobs(static_cast<unsigned>(jobs));

    SolveService service(opts);

    // One buffer for the session, never zero-filled: only the bytes a
    // line actually occupies are ever touched.
    std::unique_ptr<char[]> buf(new char[kMaxRequestLineBytes + 1]);
    std::string line;
    for (;;) {
        std::cin.getline(buf.get(), kMaxRequestLineBytes + 1);
        if (std::cin.fail()) {
            if (std::cin.eof() || std::cin.bad())
                return 0;
            // The line filled the buffer before its newline.
            std::cin.clear();
            std::cin.ignore(std::numeric_limits<std::streamsize>::max(),
                            '\n');
            std::cout << serializeJson(errorResponse(
                             0, makeError(SolveErrorCode::InvalidArgument,
                                          "snoop_serve",
                                          "request line exceeds %lld "
                                          "bytes; discarded",
                                          static_cast<long long>(
                                              kMaxRequestLineBytes))))
                      << '\n'
                      << std::flush;
            continue;
        }
        // gcount() includes the newline unless the line ended at EOF.
        line.assign(buf.get(),
                    static_cast<size_t>(std::cin.gcount()) -
                        (std::cin.eof() ? 0 : 1));
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
