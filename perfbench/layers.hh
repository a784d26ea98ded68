#pragma once

/**
 * @file
 * The per-layer metrics of a traced run. Every traced run emits the
 * same metric set, whichever workload it replays: a layer the
 * workload never calls reports a count of 0 and a time of 0.
 */

#include <cstdint>
#include <vector>

#include "bench.hh"
#include "mva/batch_solver.hh"
#include "spans.hh"

namespace perfbench {

/** Work counts recorded next to the spans, where the work happens. */
struct LayerCounts
{
    uint64_t units = 0;       ///< requests or invocations replayed
    uint64_t lookups = 0;     ///< serve.cache find calls
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t seeded = 0;      ///< misses nearest() found a seed for
    uint64_t nearestCalls = 0;
    uint64_t nearestEntries = 0; ///< LRU entries scanned in total
    uint64_t evictions = 0;
    uint64_t encodes = 0;
    uint64_t encodeBytes = 0;
    uint64_t derivedCells = 0;
    uint64_t coldSolves = 0, coldIterations = 0;
    uint64_t warmSolves = 0, warmIterations = 0;
    uint64_t attempts = 0;
    uint64_t laneIterations = 0; ///< iterations over every attempt
    uint64_t sweepCells = 0;
    uint64_t checkpointCommits = 0;
    uint64_t checkpointBytes = 0;
    uint64_t checkpointCells = 0; ///< cells of checkpointed invocations
    std::vector<double> atomicCommitUs; ///< same-size AtomicFile commits
    double parallelSpeedup = 0.0;
    double ioWaitUs = 0.0;
    double untracedWallS = 0.0;
    double tracedWallS = 0.0;
};

/** Fold one solve result into the mva counters. */
void countSolve(LayerCounts &counts, const snoop::MvaResult &result);

/**
 * util.parallel: the wall time of solving @p jobs as one batch with a
 * one-thread pool over that with a @p jobs-thread pool (medians).
 */
double parallelSpeedup(const std::vector<snoop::MvaJob> &batch,
                       unsigned jobs);

/** Emit every per-layer metric, plus the accounting lines. */
void emitLayerMetrics(Report &report, const TraceSummary &trace,
                      const LayerCounts &counts, unsigned jobs);

} // namespace perfbench
