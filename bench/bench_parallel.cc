/**
 * @file
 * Parallel-engine benchmark: the acceptance gauge for the
 * snoop_parallel layer (util/parallel.hh). It runs the two workloads
 * the layer exists for -
 *
 *  - a 13-value x 4-protocol runSweep grid (the Table 4.1-style
 *    design-space exploration the paper's conclusion advertises), and
 *  - a 32-replication prob_sim batch (the validation workhorse),
 *
 * once serially (1 job) and once on the full pool, verifies the
 * outputs are bit-identical, and writes the wall-clock comparison as
 * a JSON entry (default: BENCH_parallel.json in the current
 * directory, or the one path argument).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "core/sweep.hh"
#include "sim/prob_sim.hh"
#include "util/atomic_file.hh"
#include "util/parallel.hh"

namespace snoop::bench {
namespace {

SweepSpec
sweepSpec()
{
    SweepSpec spec;
    spec.base = presets::appendixA(SharingLevel::FivePercent);
    spec.paramName = "h_sw";
    spec.set = findParamSetter("h_sw");
    spec.values = {0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
                   0.55, 0.60, 0.65, 0.70, 0.75, 0.80};
    spec.protocols = {ProtocolConfig::writeOnce(),
                      ProtocolConfig::fromModString("1"),
                      ProtocolConfig::fromModString("13"),
                      ProtocolConfig::fromModString("14")};
    spec.n = 16;
    return spec;
}

bool
sweepsIdentical(const SweepResult &a, const SweepResult &b)
{
    if (a.results.size() != b.results.size())
        return false;
    for (size_t v = 0; v < a.results.size(); ++v) {
        if (a.results[v].size() != b.results[v].size())
            return false;
        for (size_t p = 0; p < a.results[v].size(); ++p) {
            if (!sameBits(a.results[v][p].speedup,
                          b.results[v][p].speedup) ||
                !sameBits(a.results[v][p].responseTime,
                          b.results[v][p].responseTime))
                return false;
        }
    }
    return true;
}

bool
replicationsIdentical(const ReplicationSet &a, const ReplicationSet &b)
{
    if (a.runs.size() != b.runs.size())
        return false;
    for (size_t i = 0; i < a.runs.size(); ++i) {
        if (!sameBits(a.runs[i].speedup, b.runs[i].speedup) ||
            !sameBits(a.runs[i].responseTime.mean,
                      b.runs[i].responseTime.mean) ||
            !sameBits(a.runs[i].busUtilization,
                      b.runs[i].busUtilization))
            return false;
    }
    return sameBits(a.speedup.mean, b.speedup.mean) &&
        sameBits(a.speedup.halfWidth, b.speedup.halfWidth);
}

/**
 * The speedup figure as a JSON value: a ratio only when more than one
 * core is physically available, else null - a "speedup" measured on a
 * single core reads ≈1x and says nothing about the pool.
 */
std::string
speedupJson(double serial_ms, double parallel_ms, bool multi_core)
{
    if (!multi_core || parallel_ms <= 0.0)
        return "null";
    return strprintf("%.2f", serial_ms / parallel_ms);
}

int
run(const char *out_path)
{
    const unsigned jobs = defaultJobs();
    const unsigned hw = std::thread::hardware_concurrency();
    const bool multi_core = hw > 1;
    const char *jobs_env = std::getenv("SNOOP_JOBS");
    // The MVA cells are microseconds each; repeat the sweep so the
    // grid timing measures throughput rather than pool wake-up.
    const int sweep_reps = 200;

    SimConfig sim;
    sim.numProcessors = 8;
    sim.workload = presets::appendixA(SharingLevel::FivePercent);
    sim.protocol = ProtocolConfig::writeOnce();
    sim.seed = 42;
    sim.warmupRequests = 10000;
    sim.measuredRequests = 50000;
    const unsigned replications = 32;

    auto spec = sweepSpec();

    setParallelJobs(1);
    SweepResult sweep_serial;
    double sweep_serial_ms = elapsedMs([&] {
        for (int r = 0; r < sweep_reps; ++r)
            sweep_serial = runSweep(spec);
    });
    ReplicationSet reps_serial;
    double reps_serial_ms = elapsedMs(
        [&] { reps_serial = simulateReplications(sim, replications); });

    setParallelJobs(jobs);
    SweepResult sweep_parallel;
    double sweep_parallel_ms = elapsedMs([&] {
        for (int r = 0; r < sweep_reps; ++r)
            sweep_parallel = runSweep(spec);
    });
    ReplicationSet reps_parallel;
    double reps_parallel_ms = elapsedMs(
        [&] { reps_parallel = simulateReplications(sim, replications); });
    setParallelJobs(0);

    bool sweep_ok = sweepsIdentical(sweep_serial, sweep_parallel);
    bool reps_ok = replicationsIdentical(reps_serial, reps_parallel);

    std::string note;
    if (!multi_core)
        note = ",\n  \"note\": \"single core detected; wall-clock "
               "speedup skipped (determinism still checked)\"";
    else if (jobs > hw)
        note = ",\n  \"note\": \"jobs exceed hardware concurrency; "
               "wall-clock speedup is bounded by physical cores\"";

    std::string json = strprintf(
        "{\n"
        "  \"bench\": \"parallel\",\n"
        "  \"jobs\": %u,\n"
        "  \"snoop_jobs_env\": %s,\n"
        "  \"detected_cores\": %u,\n"
        "  \"hardware_concurrency\": %u,\n"
        "  \"sweep\": {\n"
        "    \"values\": %zu, \"protocols\": %zu, \"n\": %u,\n"
        "    \"repetitions\": %d,\n"
        "    \"serial_ms\": %.2f, \"parallel_ms\": %.2f,\n"
        "    \"speedup\": %s, \"bit_identical\": %s\n"
        "  },\n"
        "  \"replications\": {\n"
        "    \"count\": %u, \"processors\": %u,\n"
        "    \"measured_requests\": %llu,\n"
        "    \"serial_ms\": %.2f, \"parallel_ms\": %.2f,\n"
        "    \"speedup\": %s, \"bit_identical\": %s\n"
        "  }%s\n"
        "}\n",
        jobs,
        jobs_env ? strprintf("\"%s\"", jobs_env).c_str() : "null", hw,
        hw, spec.values.size(), spec.protocols.size(), spec.n,
        sweep_reps, sweep_serial_ms, sweep_parallel_ms,
        speedupJson(sweep_serial_ms, sweep_parallel_ms, multi_core)
            .c_str(),
        sweep_ok ? "true" : "false", replications, sim.numProcessors,
        static_cast<unsigned long long>(sim.measuredRequests),
        reps_serial_ms, reps_parallel_ms,
        speedupJson(reps_serial_ms, reps_parallel_ms, multi_core)
            .c_str(),
        reps_ok ? "true" : "false", note.c_str());

    std::fputs(json.c_str(), stdout);
    AtomicFile out(out_path);
    if (out.ok())
        out.stream() << json;
    if (auto ok = out.commit(); ok)
        inform("wrote %s", out_path);
    else
        warn("could not write %s: %s", out_path,
             ok.error().describe().c_str());

    if (!sweep_ok || !reps_ok) {
        warn("serial and parallel outputs differ - determinism "
             "contract violated");
        return 1;
    }
    observeFinalize();
    return 0;
}

} // namespace
} // namespace snoop::bench

int
main(int argc, char **argv)
{
    return snoop::bench::run(
        snoop::bench::gateArgs(argc, argv, "BENCH_parallel.json", false)
            .outPath);
}
