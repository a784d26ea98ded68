#pragma once

/**
 * @file
 * Shared helpers for the bench programs. A report program prints the
 * paper's table or figure next to this library's measured values; a
 * gate program (bench_parallel, bench_batch_solver, bench_serve)
 * times an engine and writes a BENCH_*.json.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "observe/trace.hh"
#include "util/logging.hh"

#include "core/analyzer.hh"
#include "core/paper_data.hh"
#include "core/validation.hh"
#include "mva/solver.hh"
#include "util/strutil.hh"
#include "util/table.hh"

namespace snoop::bench {

/** Percent-formatted relative deviation of @p got from @p want. */
inline std::string
relErr(double got, double want)
{
    if (want == 0.0)
        return "-";
    return formatPercent((got - want) / want, 2);
}

/** Print a section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

/** Wall-clock time of one call of @p fn, in microseconds. */
inline double
elapsedUs(const std::function<void()> &fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(end - start)
        .count();
}

/** Wall-clock time of one call of @p fn, in milliseconds. */
inline double
elapsedMs(const std::function<void()> &fn)
{
    return elapsedUs(fn) / 1000.0;
}

/** Bitwise equality, the standard the determinism contract promises. */
inline bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Print "usage: <program> <@p args>" on stderr and exit 2. */
[[noreturn]] inline void
usageExit(const char *program, const char *args)
{
    std::fprintf(stderr, "usage: %s %s\n", program, args);
    std::exit(2);
}

/** A gate program's command line. */
struct GateArgs
{
    const char *outPath;
    bool smoke = false;
};

/**
 * Parse a gate program's command line: one optional output path
 * (default @p default_path), plus `--smoke` when @p takes_smoke. Any
 * other argument starting with '-', or a second path, ends in
 * usageExit before the program does any work.
 */
inline GateArgs
gateArgs(int argc, char **argv, const char *default_path,
         bool takes_smoke)
{
    GateArgs args{default_path};
    bool have_path = false;
    for (int i = 1; i < argc; ++i) {
        if (takes_smoke && std::strcmp(argv[i], "--smoke") == 0)
            args.smoke = true;
        else if (argv[i][0] != '-' && !have_path) {
            args.outPath = argv[i];
            have_path = true;
        } else {
            usageExit(argv[0],
                      takes_smoke ? "[--smoke] [OUT.json]" : "[OUT.json]");
        }
    }
    return args;
}

/**
 * Report main: print the experiment report, then flush the observe
 * sinks. A report takes no arguments; any argument is a usage error.
 */
#define SNOOP_BENCH_MAIN(report_fn)                                     \
    int main(int argc, char **argv)                                     \
    {                                                                   \
        if (argc > 1)                                                   \
            snoop::bench::usageExit(argv[0], "(takes no arguments)");   \
        report_fn();                                                    \
        snoop::observeFinalize();                                       \
        return 0;                                                       \
    }

} // namespace snoop::bench
