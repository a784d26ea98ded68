#pragma once

/**
 * @file
 * The library's front door: one-call analysis of a protocol
 * configuration under a workload, plus sweep helpers. Wraps the MVA
 * solver (the paper's contribution) with workload derivation and
 * protocol lookup so typical uses are three lines:
 *
 * @code
 *   Analyzer analyzer;
 *   auto r = analyzer.analyze("Illinois",
 *                             presets::appendixA(SharingLevel::FivePercent),
 *                             16);
 *   std::cout << r.summary() << "\n";
 * @endcode
 */

#include <cstdint>
#include <string>
#include <vector>

#include "mva/batch_solver.hh"
#include "mva/solver.hh"
#include "protocol/catalog.hh"
#include "workload/params.hh"

namespace snoop {

/**
 * One cell of a batch analysis (Analyzer::tryAnalyzeBatch): an
 * explicit protocol configuration, a workload, a system size, and
 * optionally a warm-start seed plus the schedule-independent trace
 * task id its events should record under.
 */
struct AnalysisRequest
{
    ProtocolConfig protocol;
    WorkloadParams workload;
    unsigned n = 0;
    /** Warm-start seed; the all-zero seed is the paper's cold start. */
    MvaSeed seed{};
    /** Trace task id for this cell's events (0 = ambient task). */
    uint64_t traceKey = 0;
};

/** High-level facade over the MVA model. */
class Analyzer
{
  public:
    /** @param options numerical options forwarded to the solver */
    explicit Analyzer(MvaOptions options = {}, BusTiming timing = {});

    /**
     * Analyze a named protocol (catalog name or mod string - see
     * findProtocol()); throws SolveException on an unknown name or a
     * solve failure.
     */
    MvaResult analyze(const std::string &protocol,
                      const WorkloadParams &workload, unsigned n) const;

    /** Analyze an explicit protocol configuration; throws on error. */
    MvaResult analyze(const ProtocolConfig &protocol,
                      const WorkloadParams &workload, unsigned n) const;

    /**
     * Non-throwing analysis: an MvaResult or the structured error
     * (UnknownProtocol, InvalidArgument for a bad workload,
     * NonFiniteIterate/NumericRange from the solver). The primitive
     * sweep cells and other batch drivers build fault isolation on.
     */
    [[nodiscard]] Expected<MvaResult> tryAnalyze(const std::string &protocol,
                                   const WorkloadParams &workload,
                                   unsigned n) const;

    /** Non-throwing analysis of an explicit configuration. */
    [[nodiscard]] Expected<MvaResult> tryAnalyze(const ProtocolConfig &protocol,
                                   const WorkloadParams &workload,
                                   unsigned n) const;

    /**
     * Analyze every request through the SoA batch engine
     * (BatchMvaSolver); result i corresponds to request i. Each
     * cell's result is bit-identical to tryAnalyze of the same cell,
     * at any SNOOP_JOBS setting; failures (bad workload, solver
     * errors) are per-slot structured errors with the same context
     * string tryAnalyze attaches. Admission (workload validation, the
     * analyze trace span, analyze.calls) runs serially in request
     * order; only the lockstep solve is parallel.
     */
    [[nodiscard]] std::vector<Expected<MvaResult>>
    tryAnalyzeBatch(const std::vector<AnalysisRequest> &requests) const;

    /** Speedup sweep over processor counts. */
    std::vector<MvaResult> sweep(const ProtocolConfig &protocol,
                                 const WorkloadParams &workload,
                                 const std::vector<unsigned> &ns) const;

    /**
     * Evaluate all 16 modification combinations at one system size,
     * sorted by descending speedup.
     */
    std::vector<MvaResult>
    rankDesignSpace(const WorkloadParams &workload, unsigned n) const;

    /**
     * Smallest N at which bus utilization reaches @p target (default:
     * 95%), searched up to @p limit; returns 0 if never reached.
     * The capacity-planning primitive of the examples. Throws
     * SolveException on an invalid target (non-finite or outside
     * (0, 1]) or a failed probe solve.
     */
    unsigned saturationPoint(const ProtocolConfig &protocol,
                             const WorkloadParams &workload,
                             double target = 0.95,
                             unsigned limit = 4096) const;

    /**
     * Non-throwing saturationPoint: the knee, 0 if never reached
     * within @p limit, or the structured error (InvalidArgument for a
     * bad target/workload, or whatever a probe solve reported). One
     * faulted probe stays one error instead of aborting a caller's
     * whole per-protocol loop - the isolation primitive behind
     * examples/capacity_planner and snoop_serve's `saturation`
     * request. Probes solve under NonConvergencePolicy::Accept: an
     * unconverged probe at the knee still compares its busUtil.
     */
    [[nodiscard]] Expected<unsigned>
    trySaturationPoint(const ProtocolConfig &protocol,
                       const WorkloadParams &workload,
                       double target = 0.95,
                       unsigned limit = 4096) const;

    /** The timing constants in use. */
    const BusTiming &timing() const { return timing_; }

  private:
    MvaSolver solver_;
    BatchMvaSolver batch_;
    BusTiming timing_;
};

} // namespace snoop
