/**
 * @file
 * The perfbench binary. Runs one workload for one seed and prints
 * every metric by name and unit, then, as the last line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
 *             --serve=<snoop_serve> --design-space=<design_space>
 *             --work-dir=<dir>
 *
 * --trace=0 measures the real binaries end to end; --trace=1 replays
 * the same seeded inputs in process under per-layer spans. perfbench/
 * run.py builds everything and supplies the paths.
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <sched.h>
#include <signal.h>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace {

/** The clone the batch kernel's target_clones resolver picks here. */
const char *
kernelDispatch()
{
#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__)
    // Same candidates, same priority as the resolver GCC emits for
    // target_clones("default", "avx2", "avx512f") in
    // src/mva/batch_solver.cc.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return "avx512f";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
    return "default";
#else
    return "none (no target_clones on this platform)";
#endif
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    int n = CPU_COUNT(&set);
    return n > 0 ? static_cast<unsigned>(n) : 1u;
}

std::string
number(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out + "\"";
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload=<name> "
                 "--seed=<n> --seconds=<s> --trace=<0|1> --serve=<path> "
                 "--design-space=<path> --work-dir=<dir>\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // A daemon that dies mid-write must be a failed request, not a
    // dead benchmark.
    signal(SIGPIPE, SIG_IGN);

    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        const char *eq = std::strchr(a, '=');
        if (std::strncmp(a, "--", 2) != 0 || eq == nullptr)
            return usage("arguments look like --name=value");
        args[std::string(a + 2, eq)] = eq + 1;
    }
    for (const char *required : {"workload", "seed", "seconds", "trace",
                                 "serve", "design-space", "work-dir"}) {
        if (args.count(required) == 0)
            return usage((std::string("missing --") + required).c_str());
    }

    RunConfig cfg;
    cfg.workload = args["workload"];
    cfg.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    cfg.seconds = std::strtod(args["seconds"].c_str(), nullptr);
    cfg.trace = args["trace"] == "1";
    cfg.serveBin = args["serve"];
    cfg.designSpaceBin = args["design-space"];
    cfg.workDir = args["work-dir"];
    cfg.jobs = onlineCpus();
    if (!(cfg.seconds > 0.0))
        return usage("--seconds must be positive");

    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%u kernel_dispatch=%s\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? 1 : 0, cfg.jobs, kernelDispatch());
    std::fflush(stdout);

    Report report;
    try {
        if (cfg.workload == "serve_explore" || cfg.workload == "serve_replay")
            runServeWorkload(cfg, report);
        else if (cfg.workload == "sweep_ckpt" || cfg.workload == "sweep_grid")
            runSweepWorkload(cfg, report);
        else
            return usage(("unknown workload '" + cfg.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    for (const Metric &m : report.metrics()) {
        std::printf("  %-34s %16s %-6s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str(), m.note.c_str());
    }
    for (const Metric &m : report.printed()) {
        std::printf("  %-34s %16s %-6s %s (printed only)\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str(), m.note.c_str());
    }
    const double failFrac = report.attempted() == 0
        ? 1.0
        : static_cast<double>(report.failed()) /
            static_cast<double>(report.attempted());
    std::printf("  %-34s %16s %-6s %llu failed of %llu attempted\n",
                "fail_frac", number(failFrac).c_str(), "ratio",
                static_cast<unsigned long long>(report.failed()),
                static_cast<unsigned long long>(report.attempted()));
    for (const std::string &f : report.failures())
        std::printf("  FAILED: %s\n", f.c_str());

    std::string json = "{\"correct\": ";
    json += report.failed() == 0 && report.attempted() > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted());
    json += ", \"failed\": " + std::to_string(report.failed());
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : report.metrics()) {
        if (!first)
            json += ", ";
        first = false;
        json += jsonString(m.name) + ": {\"value\": " + number(m.value) +
            ", \"unit\": " + jsonString(m.unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
