/**
 * @file
 * Batch-solver benchmark: the acceptance gauge for the SoA lockstep
 * engine (mva/batch_solver.hh). It solves a Table 4-1-sized grid
 * (3 sharing levels x 4 protocols x 9 system sizes) two ways -
 *
 *  - per-cell scalar MvaSolver::trySolve calls, the pre-batch path,
 *  - one BatchMvaSolver::solveBatch over the same cells,
 *
 * both pinned to a single job so the ratio isolates what the SoA
 * layout buys (ILP across lanes hiding the division latency chain,
 * per-solve overhead amortized across a block), verifies the batch
 * results are bit-identical to the scalar ones, then times the batch
 * engine once more on the full pool. The comparison is written as
 * JSON (default: BENCH_batch_solver.json in the current directory,
 * or the one path argument).
 *
 * `--smoke` runs one quick repetition and reports without gating; the
 * full run exits nonzero if bit-identity breaks or the single-core
 * batch speedup falls below the 4x acceptance floor.
 */

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "mva/batch_solver.hh"
#include "util/atomic_file.hh"
#include "util/parallel.hh"

namespace snoop::bench {
namespace {

/** The Table 4-1-shaped grid: every paper cell plus the large-N tail. */
std::vector<MvaJob>
tableGridJobs()
{
    std::vector<MvaJob> jobs;
    for (auto level : kSharingLevels) {
        for (const char *mods : {"", "1", "13", "123"}) {
            auto inputs = DerivedInputs::compute(
                presets::appendixA(level),
                ProtocolConfig::fromModString(mods));
            for (unsigned n :
                 {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 1000u}) {
                MvaJob job;
                job.inputs = inputs;
                job.n = n;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

bool
resultsIdentical(const std::vector<Expected<MvaResult>> &a,
                 const std::vector<Expected<MvaResult>> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (!a[i].ok() || !b[i].ok())
            return false;
        const MvaResult &x = a[i].value();
        const MvaResult &y = b[i].value();
        if (!sameBits(x.speedup, y.speedup) ||
            !sameBits(x.responseTime, y.responseTime) ||
            !sameBits(x.wBus, y.wBus) || !sameBits(x.wMem, y.wMem) ||
            !sameBits(x.busUtil, y.busUtil) ||
            !sameBits(x.residual, y.residual) ||
            x.iterations != y.iterations ||
            x.converged != y.converged)
            return false;
    }
    return true;
}

int
run(const char *out_path, bool smoke)
{
    const unsigned pool_jobs = defaultJobs();
    const unsigned hw = std::thread::hardware_concurrency();
    // The grid solves in single-digit milliseconds; repeat it so the
    // timing measures solver throughput rather than clock
    // granularity.
    const int reps = smoke ? 3 : 400;

    const std::vector<MvaJob> jobs = tableGridJobs();
    MvaSolver scalar;
    BatchMvaSolver batch;

    setParallelJobs(1);
    std::vector<Expected<MvaResult>> scalar_results;
    double scalar_ms = elapsedMs([&] {
        for (int r = 0; r < reps; ++r) {
            scalar_results.clear();
            scalar_results.reserve(jobs.size());
            for (const MvaJob &job : jobs) {
                // Reference values, compared bitwise against the
                // batch lanes below.
                scalar_results.push_back(
                    scalar.trySolve(job.inputs, job.n, job.seed));
            }
        }
    });

    std::vector<Expected<MvaResult>> batch_results;
    double batch_ms = elapsedMs([&] {
        for (int r = 0; r < reps; ++r)
            batch_results = batch.solveBatch(jobs);
    });

    setParallelJobs(pool_jobs);
    double pooled_ms = elapsedMs([&] {
        for (int r = 0; r < reps; ++r)
            batch_results = batch.solveBatch(jobs);
    });
    setParallelJobs(0);

    const bool identical = resultsIdentical(scalar_results, batch_results);
    const double speedup = batch_ms > 0.0 ? scalar_ms / batch_ms : 0.0;
    const double floor = 4.0;
    const bool pass = identical && (smoke || speedup >= floor);

    std::string json = strprintf(
        "{\n"
        "  \"bench\": \"batch_solver\",\n"
        "  \"mode\": \"%s\",\n"
        "  \"grid_cells\": %zu,\n"
        "  \"repetitions\": %d,\n"
        "  \"block_size\": %zu,\n"
        "  \"hardware_concurrency\": %u,\n"
        "  \"scalar_single_core_ms\": %.2f,\n"
        "  \"batch_single_core_ms\": %.2f,\n"
        "  \"batch_pool_ms\": %.2f,\n"
        "  \"pool_jobs\": %u,\n"
        "  \"single_core_speedup\": %.2f,\n"
        "  \"acceptance_floor\": %.1f,\n"
        "  \"bit_identical\": %s,\n"
        "  \"pass\": %s\n"
        "}\n",
        smoke ? "smoke" : "full", jobs.size(), reps,
        batch.options().blockSize, hw, scalar_ms, batch_ms, pooled_ms,
        pool_jobs, speedup, floor, identical ? "true" : "false",
        pass ? "true" : "false");

    std::fputs(json.c_str(), stdout);
    AtomicFile out(out_path);
    if (out.ok())
        out.stream() << json;
    if (auto ok = out.commit(); ok)
        inform("wrote %s", out_path);
    else
        warn("could not write %s: %s", out_path,
             ok.error().describe().c_str());

    if (!identical) {
        warn("batch and scalar outputs differ - determinism contract "
             "violated");
        return 1;
    }
    if (!smoke && speedup < floor) {
        warn("single-core batch speedup %.2fx is below the %.1fx "
             "acceptance floor", speedup, floor);
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
    auto args = snoop::bench::gateArgs(argc, argv,
                                       "BENCH_batch_solver.json", true);
    return snoop::bench::run(args.outPath, args.smoke);
}
