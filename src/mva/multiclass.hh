#pragma once

/**
 * @file
 * Multi-class extension of the customized MVA model: processor
 * classes with different execution rates and workloads sharing one
 * bus and memory (e.g. compute processors alongside I/O processors,
 * or phases pinned to subsets of the machine).
 *
 * The paper's model assumes N statistically identical processors;
 * this extension applies the standard multi-class arrival-theorem
 * treatment ([LZGS84] ch. 7 in spirit) to the same customized
 * equations: each class has its own response-time equation and bus
 * demand, the bus queue seen by an arriving class-k request is the
 * population-weighted sum over classes with one class-k customer
 * removed, and the shared waiting times close the fixed point.
 */

#include <string>
#include <vector>

#include "mva/result.hh"
#include "mva/solver.hh"
#include "workload/derived.hh"

namespace snoop {

/** One processor class. */
struct ProcessorClass
{
    std::string name;     ///< label for reports
    unsigned count = 1;   ///< processors of this class
    DerivedInputs inputs; ///< class workload (its tau is used)
};

/** Per-class measures of a multi-class solve. */
struct ClassResult
{
    std::string name;
    unsigned count = 0;
    double responseTime = 0.0; ///< R_k
    double speedup = 0.0;      ///< count * (tau_k + T_supply) / R_k
    double busDemandShare = 0.0; ///< class share of bus utilization
};

/** Results of a multi-class solve. */
struct MulticlassResult
{
    std::vector<ClassResult> classes;
    double totalSpeedup = 0.0; ///< sum of class speedups
    double busUtil = 0.0;
    double memUtil = 0.0;
    double wBus = 0.0;
    double wMem = 0.0;
    int iterations = 0;
    bool converged = false;
};

/**
 * Solve the multi-class model. All classes must share timing constants
 * (throws SolveException otherwise). With a single class, or with k
 * identical classes, it lands on MvaSolver's fixed point: it runs the
 * same equation terms (mva/kernel.hh) and stop test, but forms the
 * bus access and residual times from per-class rates, so its last
 * digits can differ.
 *
 * Of @p options it honours maxIterations, tolerance, damping and
 * onNonConvergence (solveExtension, mva/lane.hh). Invalid options, or
 * a non-default timeBudget, iterationBudget or recordTrace, throw an
 * InvalidArgument SolveException.
 */
MulticlassResult solveMulticlass(const std::vector<ProcessorClass> &classes,
                                 const MvaOptions &options = {});

} // namespace snoop
