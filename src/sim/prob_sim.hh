#pragma once

/**
 * @file
 * The probabilistic-workload discrete-event simulator: the detailed
 * baseline model of this reproduction (standing in for the GTPN of
 * [VeHo86]; see DESIGN.md Section 3).
 *
 * The workload is treated exactly as in the analytical model - every
 * per-reference outcome (stream class, hit/miss, already-modified,
 * copy-elsewhere, supplier-dirty, victim write-back) is sampled from
 * the Section 2.3 parameters - while the *interference* is simulated
 * in full detail: an FCFS shared bus, interleaved memory modules with
 * fixed latency, and snoop-induced cache interference through the
 * protocol state machine. MVA-vs-simulation comparisons therefore
 * isolate precisely the approximations the paper's mean-value
 * equations make (eqs. (5)-(13)).
 */

#include <optional>
#include <string>
#include <vector>

#include "protocol/config.hh"
#include "sim/bus.hh"
#include "stats/batch_means.hh"
#include "stats/histogram.hh"
#include "util/expected.hh"
#include "workload/derived.hh"
#include "workload/params.hh"

namespace snoop {

/** Configuration of a probabilistic-mode simulation run. */
struct SimConfig
{
    unsigned numProcessors = 8;
    WorkloadParams workload;      ///< basic (unadjusted) parameters
    ProtocolConfig protocol;
    BusTiming timing;             ///< same constants the MVA uses
    uint64_t seed = 1;
    /** Requests (system-wide) discarded as warm-up. */
    uint64_t warmupRequests = 20000;
    /** Requests (system-wide) measured after warm-up. */
    uint64_t measuredRequests = 200000;
    /** Batch size for the response-time confidence interval. */
    uint64_t batchSize = 5000;

    /**
     * Draw bus occupancies from exponential distributions with the
     * BusTiming means instead of using them as deterministic times.
     * The paper's system has deterministic bus access (the default);
     * the exponential mode exists for exact cross-validation against
     * the Petri-net CTMC and product-form closed MVA.
     */
    bool exponentialBusTimes = false;

    /**
     * Bus scheduling discipline: FCFS (the MVA's assumption) or random
     * order (the GTPN's). Section 2.1 argues both have the same mean
     * waiting time; tests/sim/test_bus_memory.cc verifies it.
     */
    BusDiscipline busDiscipline = BusDiscipline::Fcfs;

    /**
     * Optional per-processor multipliers on the mean execution burst
     * tau (heterogeneous processors). Empty = all processors identical
     * (the paper's assumption); otherwise must have numProcessors
     * entries, all positive. Used to validate the multi-class MVA
     * extension.
     */
    std::vector<double> tauMultipliers;

    /** Collect a histogram of request-to-request cycle times. */
    bool collectHistogram = false;
    /** Histogram range [0, histogramMax) and bin count. */
    double histogramMax = 200.0;
    size_t histogramBins = 100;

    /** A structured error for nonsensical settings, the workload
     * and bus timing included. */
    [[nodiscard]] Expected<void> check() const;
};

/** Measures produced by a simulation run. */
struct SimResult
{
    unsigned numProcessors = 0;
    double speedup = 0.0;          ///< N * (tau + T_supply) / mean R
    ConfidenceInterval responseTime; ///< mean request-to-request cycle
    ConfidenceInterval speedupCi;  ///< speedup with CI bounds
    double busUtilization = 0.0;
    double memUtilization = 0.0;
    double meanBusWait = 0.0;      ///< request-to-grant wait
    double meanSnoopDelay = 0.0;   ///< cache-interference delay per
                                   ///< local request
    uint64_t requestsMeasured = 0;
    double simulatedCycles = 0.0;  ///< measured-window length
    /** Mean request-to-request cycle per processor (heterogeneous
     *  runs); empty when not collected. */
    std::vector<double> perProcessorResponse;
    /** Cycle-time histogram (when SimConfig::collectHistogram). */
    std::optional<Histogram> responseHistogram;

    /** One-line summary for logs and examples. */
    std::string summary() const;
};

/**
 * Run one probabilistic-mode simulation.
 *
 * Deterministic given SimConfig::seed. Cost is linear in
 * warmupRequests + measuredRequests.
 */
SimResult simulate(const SimConfig &config);

/** A batch of independent replications of one configuration. */
struct ReplicationSet
{
    /** Per-replication results, ordered by replication index. */
    std::vector<SimResult> runs;
    /** errors[i] is set iff replication i failed (runs[i] is then
     *  default-valued and excluded from the statistics). */
    std::vector<std::optional<SolveError>> errors;
    /** Across-replication speedup estimate (Student-t over runs). */
    ConfidenceInterval speedup;
    /** Across-replication mean response-time estimate. */
    ConfidenceInterval responseTime;

    /** Number of failed replications. */
    size_t failureCount() const;

    /** One-line summary for logs and examples. */
    std::string summary() const;
};

/**
 * Run @p replications independent replications of @p base, each with
 * its own RNG substream: replication i is seeded with the i-th output
 * of a SplitMix64 sequence started at base.seed, derived before any
 * replication runs. Replications execute in parallel on the
 * process-wide pool (util/parallel.hh) into pre-sized slots, so the
 * ReplicationSet is bit-identical to a serial run at any thread count.
 */
ReplicationSet simulateReplications(const SimConfig &base,
                                    unsigned replications);

} // namespace snoop
