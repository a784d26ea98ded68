#include "layers.hh"

#include <cstdio>
#include <string>

#include "util/parallel.hh"

namespace perfbench {

namespace {

const LayerStats &
layer(const TraceSummary &t, const char *name)
{
    static const LayerStats kIdle;
    auto it = t.layers.find(name);
    return it == t.layers.end() ? kIdle : it->second;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
count(size_t n)
{
    return "n=" + std::to_string(n);
}

} // namespace

void
countSolve(LayerCounts &c, const snoop::MvaResult &r)
{
    if (r.warmStarted) {
        ++c.warmSolves;
        c.warmIterations += static_cast<uint64_t>(r.iterations);
    } else {
        ++c.coldSolves;
        c.coldIterations += static_cast<uint64_t>(r.iterations);
    }
    // The ladder's earlier attempts ran their iterations too.
    c.attempts += r.attempts.empty() ? 1 : r.attempts.size();
    if (r.attempts.empty()) {
        c.laneIterations += static_cast<uint64_t>(r.iterations);
    } else {
        for (const snoop::SolveAttempt &a : r.attempts)
            c.laneIterations += static_cast<uint64_t>(a.iterations);
    }
}

double
parallelSpeedup(const std::vector<snoop::MvaJob> &batch, unsigned jobs)
{
    if (batch.empty())
        return 0.0;
    snoop::BatchMvaSolver solver;
    auto wall = [&](unsigned pool) {
        snoop::setParallelJobs(pool);
        (void)solver.solveBatch(batch); // pool start-up is not timed
        std::vector<double> t;
        for (int rep = 0; rep < 7; ++rep) {
            Clock::time_point a = Clock::now();
            (void)solver.solveBatch(batch);
            t.push_back(secondsBetween(a, Clock::now()));
        }
        return quantile(t, 0.5);
    };
    double one = wall(1);
    double many = wall(jobs);
    return one / many;
}

void
emitLayerMetrics(Report &report, const TraceSummary &t,
                 const LayerCounts &c, unsigned jobs)
{
    auto p = [&](const char *span, double q) {
        return quantile(layer(t, span).durUs, q);
    };
    auto n = [&](const char *span) { return count(layer(t, span).count); };

    report.metric("serve.protocol.parse_us.p50",
                  p("serve.protocol.parse", 0.5), "us",
                  n("serve.protocol.parse"));
    report.metric("serve.protocol.parse_us.p99",
                  p("serve.protocol.parse", 0.99), "us");
    report.metric("serve.service.admit_us", p("serve.service.admit", 0.5),
                  "us", n("serve.service.admit"));
    report.metric("serve.service.assemble_us",
                  p("serve.service.assemble", 0.5), "us",
                  n("serve.service.assemble"));
    report.metric("util.json.encode_us.p50", p("util.json.encode", 0.5),
                  "us", n("util.json.encode"));
    report.metric("util.json.encode_us.p99", p("util.json.encode", 0.99),
                  "us");
    report.metric("util.json.encode_bytes",
                  ratio(static_cast<double>(c.encodeBytes),
                        static_cast<double>(c.encodes)),
                  "bytes", "mean per response");

    report.metric("serve.cache.key_us", p("serve.cache.key", 0.5), "us",
                  n("serve.cache.key"));
    report.metric("serve.cache.find_us", p("serve.cache.find", 0.5), "us",
                  n("serve.cache.find"));
    report.metric("serve.cache.hit_ratio",
                  ratio(static_cast<double>(c.hits),
                        static_cast<double>(c.lookups)),
                  "ratio", std::to_string(c.hits) + " of " +
                      std::to_string(c.lookups) + " lookups");
    report.metric("serve.cache.insert_us", p("serve.cache.insert", 0.5),
                  "us", n("serve.cache.insert"));
    report.metric("serve.cache.evictions",
                  static_cast<double>(c.evictions), "count");
    report.metric("serve.cache.nearest_us.p50",
                  p("serve.cache.nearest", 0.5), "us",
                  n("serve.cache.nearest"));
    report.metric("serve.cache.nearest_us.p99",
                  p("serve.cache.nearest", 0.99), "us");
    report.metric("serve.cache.nearest_entries",
                  ratio(static_cast<double>(c.nearestEntries),
                        static_cast<double>(c.nearestCalls)),
                  "count", "LRU entries scanned per call");
    report.metric("serve.cache.warm_ratio",
                  ratio(static_cast<double>(c.seeded),
                        static_cast<double>(c.misses)),
                  "ratio", "seeded misses / misses");

    const uint64_t solves = c.coldSolves + c.warmSolves;
    const LayerStats &derive = layer(t, "workload.derived.compute");
    const LayerStats &solve = layer(t, "mva.solve");
    report.metric("workload.derived.compute_us",
                  ratio(derive.totalUs, static_cast<double>(c.derivedCells)),
                  "us", "per cell, " + count(c.derivedCells));
    report.metric("mva.solve_us",
                  ratio(solve.totalUs, static_cast<double>(solves)), "us",
                  "per cell, " + count(solves));
    report.metric("mva.iterations_cold",
                  ratio(static_cast<double>(c.coldIterations),
                        static_cast<double>(c.coldSolves)),
                  "count", "mean, " + count(c.coldSolves));
    report.metric("mva.iterations_warm",
                  ratio(static_cast<double>(c.warmIterations),
                        static_cast<double>(c.warmSolves)),
                  "count", "mean, " + count(c.warmSolves));
    report.metric("mva.attempts_per_solve",
                  ratio(static_cast<double>(c.attempts),
                        static_cast<double>(solves)),
                  "count");
    report.metric("mva.ns_per_lane_iter",
                  ratio(solve.totalUs * 1e3,
                        static_cast<double>(c.laneIterations)),
                  "ns", "batch wall / lane iterations");

    report.metric("util.parallel.speedup", c.parallelSpeedup, "ratio",
                  "one batch, jobs 1 vs " + std::to_string(jobs));
    report.metric("util.parallel.efficiency",
                  c.parallelSpeedup / static_cast<double>(jobs), "ratio");

    report.metric("core.sweep.solve_us_per_cell",
                  ratio(layer(t, "core.sweep.solve").totalUs,
                        static_cast<double>(c.sweepCells)),
                  "us", count(c.sweepCells));
    report.metric("core.sweep.render_us", p("core.sweep.render", 0.5), "us",
                  n("core.sweep.render"));
    report.metric("core.checkpoint.write_us.p50",
                  p("core.checkpoint.write", 0.5), "us",
                  n("core.checkpoint.write"));
    report.metric("core.checkpoint.write_us.p99",
                  p("core.checkpoint.write", 0.99), "us");
    report.metric("core.checkpoint.bytes_per_commit",
                  ratio(static_cast<double>(c.checkpointBytes),
                        static_cast<double>(c.checkpointCommits)),
                  "bytes");
    report.metric("core.checkpoint.bytes_per_cell",
                  ratio(static_cast<double>(c.checkpointBytes),
                        static_cast<double>(c.checkpointCells)),
                  "bytes", "total written / cells");
    report.metric("core.checkpoint.read_us", p("core.checkpoint.read", 0.5),
                  "us", n("core.checkpoint.read"));
    report.metric("util.atomic_file.commit_us",
                  quantile(c.atomicCommitUs, 0.5), "us",
                  count(c.atomicCommitUs.size()));

    report.metric("serve.io_wait_us", c.ioWaitUs, "us",
                  "p50 end to end - p50 in process");
    report.metric("observe.trace_overhead",
                  ratio(c.tracedWallS, c.untracedWallS) - 1.0, "ratio",
                  "traced wall / untraced wall - 1");

    // Accounting: the in-process total is the sum of the root spans;
    // what the layer spans' self times do not cover is the glue
    // between layer calls.
    report.metric("trace.units", static_cast<double>(c.units), "count");
    report.metric("trace.inprocess_s", t.rootUs / 1e6, "s");
    report.metric("trace.layer_self_s", t.layerSelfUs / 1e6, "s");
    report.metric("trace.uncovered_share",
                  ratio(t.rootUs - t.layerSelfUs, t.rootUs), "ratio");

    std::printf("per-layer self time (share of the in-process total):\n");
    for (const auto &[name, stats] : t.layers) {
        std::printf("  %-28s %10zu spans %12.1f us self %6.2f%%\n",
                    name.c_str(), stats.count, stats.selfUs,
                    100.0 * ratio(stats.selfUs, t.rootUs));
    }
    std::printf("  %-28s %10s       %12.1f us      %6.2f%%\n", "(uncovered)",
                "", t.rootUs - t.layerSelfUs,
                100.0 * ratio(t.rootUs - t.layerSelfUs, t.rootUs));
}

} // namespace perfbench
