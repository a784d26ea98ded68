#pragma once

/**
 * @file
 * A two-level bus hierarchy extension of the customized MVA model -
 * the direction the paper's conclusion points to: "The approach is
 * certainly applicable to the performance analysis of larger and more
 * complex cache-coherent multiprocessors [Wils87, GoWo87]."
 *
 * The machine is the hierarchical cache/bus architecture of [Wils87]:
 * C symmetric clusters of P processors each; every cluster has a
 * local snooping bus, and the clusters connect through a single
 * global bus to main memory. A fraction of bus transactions is
 * satisfied within the cluster (by the cluster cache / local
 * snooping); the rest must also traverse the global bus, holding the
 * local bus for the duration (the simple hierarchical designs of the
 * era did not split transactions).
 *
 * The model applies the same customized-MVA ingredients as the flat
 * model: arrival-theorem queue estimates with the arriving customer
 * removed, deterministic-service residual life (t/2), and fixed-point
 * iteration from zero waiting times.
 *
 * Accuracy note: holding the local bus through the global transaction
 * is *simultaneous resource possession*, which mean-value analysis
 * only approximates (the textbook treatment needs surrogate delays).
 * Validation against the hierarchical discrete-event simulator
 * (tests/sim/test_hier_sim.cc) shows the usual few-percent agreement
 * across cluster shapes, degrading to ~15% underestimation in the
 * worst corner - few large clusters with heavy remote traffic, where
 * both levels are congested at once.
 */

#include <string>

#include "mva/solver.hh"
#include "workload/derived.hh"

namespace snoop {

/** Configuration of the two-level machine and its workload. */
struct HierarchicalConfig
{
    unsigned clusters = 4;          ///< C
    unsigned processorsPerCluster = 4; ///< P
    /** mean execution cycles between memory requests (tau) */
    double tau = 2.5;
    /** cache service time (T_supply) */
    double tSupply = 1.0;
    /** P(request satisfied in the processor's own cache) */
    double pLocal = 0.92;
    /** local-bus occupancy of a transaction's local phase */
    double tLocalBus = 5.0;
    /** P(bus transaction must also traverse the global bus) */
    double pRemote = 0.3;
    /** global-bus occupancy of the remote phase */
    double tGlobalBus = 9.0;

    unsigned totalProcessors() const
    {
        return clusters * processorsPerCluster;
    }

    /** Throws SolveException (InvalidArgument) on malformed values. */
    void validate() const;
};

/** Steady-state measures of the two-level model. */
struct HierarchicalResult
{
    unsigned totalProcessors = 0;
    double speedup = 0.0;        ///< N * (tau + T_supply) / R
    double responseTime = 0.0;   ///< R
    double wLocalBus = 0.0;      ///< mean local-bus wait
    double wGlobalBus = 0.0;     ///< mean global-bus wait
    double localBusUtil = 0.0;   ///< per-cluster local-bus utilization
    double globalBusUtil = 0.0;  ///< global-bus utilization
    int iterations = 0;
    bool converged = false;

    /** One-line summary for examples and logs. */
    std::string summary() const;
};

/**
 * Solve the two-level model by damped fixed-point iteration from zero
 * waits, with MvaSolver's equation terms and stop test (mva/kernel.hh).
 *
 * Of @p options it honours maxIterations, tolerance, damping and
 * onNonConvergence (solveExtension, mva/lane.hh). Invalid options, or
 * a non-default timeBudget or iterationBudget, throw an
 * InvalidArgument SolveException.
 */
HierarchicalResult solveHierarchical(const HierarchicalConfig &config,
                                     const MvaOptions &options = {});

/**
 * Convenience: derive pLocal / tLocalBus / pRemote / tGlobalBus from a
 * flat-model workload. Transactions that would have been broadcasts or
 * cache-supplied reads stay local to the cluster; memory-supplied
 * reads and write-backs traverse the global bus, which carries the
 * memory path (tReadMem of @p inputs).
 *
 * @param inputs        flat-model derived inputs
 * @param cluster_share P(a would-be-remote transaction is satisfied
 *                      within the cluster anyway) - models the cluster
 *                      cache of [Wils87]; 0 = no cluster caching.
 */
HierarchicalConfig hierarchicalFromFlat(const DerivedInputs &inputs,
                                        unsigned clusters,
                                        unsigned processors_per_cluster,
                                        double cluster_share);

} // namespace snoop
